package core

import (
	"fmt"
	"sync"

	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/retry"
	"github.com/stripdb/strip/internal/sched"
	"github.com/stripdb/strip/internal/txn"
)

// Periodic recomputation support (paper §3: "periodic recomputation is
// supported by STRIP" — e.g. recomputing stock_stdev from daily closes).
// A periodic task runs a registered user function in a fresh transaction
// every interval; each completed run schedules the next through the same
// delay-queue machinery rule tasks use.

// periodicTask tracks one recurring job.
type periodicTask struct {
	name     string
	fn       ActionFunc
	interval clock.Micros
	engine   *Engine

	// attempt counts transient-abort retries of the current run; it is only
	// touched from the task body (one periodic task instance is in flight
	// at a time).
	attempt int

	mu       sync.Mutex
	stopped  bool
	runs     int64
	failures int64
	restarts int64
}

// PeriodicStats reports a periodic task's activity.
type PeriodicStats struct {
	Runs     int64
	Failures int64
	Restarts int64
	Stopped  bool
}

// SchedulePeriodic registers fn to run every interval, starting one
// interval from now. The name must be unique among periodic tasks.
func (e *Engine) SchedulePeriodic(name string, interval clock.Micros, fn ActionFunc) error {
	if name == "" || fn == nil {
		return fmt.Errorf("core: invalid periodic task")
	}
	if interval <= 0 {
		return fmt.Errorf("core: periodic task %q needs a positive interval", name)
	}
	e.mu.Lock()
	if e.periodic == nil {
		e.periodic = make(map[string]*periodicTask)
	}
	if _, dup := e.periodic[name]; dup {
		e.mu.Unlock()
		return fmt.Errorf("core: periodic task %q already exists", name)
	}
	pt := &periodicTask{name: name, fn: fn, interval: interval, engine: e}
	e.periodic[name] = pt
	e.mu.Unlock()
	pt.scheduleNext()
	return nil
}

// StopPeriodic cancels a periodic task after its current/next firing.
func (e *Engine) StopPeriodic(name string) error {
	e.mu.RLock()
	pt := e.periodic[name]
	e.mu.RUnlock()
	if pt == nil {
		return fmt.Errorf("core: periodic task %q does not exist", name)
	}
	pt.mu.Lock()
	pt.stopped = true
	pt.mu.Unlock()
	return nil
}

// PeriodicStats reports a periodic task's counters.
func (e *Engine) PeriodicStats(name string) (PeriodicStats, bool) {
	e.mu.RLock()
	pt := e.periodic[name]
	e.mu.RUnlock()
	if pt == nil {
		return PeriodicStats{}, false
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return PeriodicStats{Runs: pt.runs, Failures: pt.failures, Restarts: pt.restarts, Stopped: pt.stopped}, true
}

func (pt *periodicTask) scheduleNext() {
	pt.submitAfter(pt.interval)
}

// submitAfter queues the next run delay engine-micros from now. A scheduler
// refusal (shutdown) marks the task stopped so it is not rescheduled.
func (pt *periodicTask) submitAfter(delay clock.Micros) {
	pt.mu.Lock()
	if pt.stopped {
		pt.mu.Unlock()
		return
	}
	pt.mu.Unlock()
	err := pt.engine.Sched.Submit(&sched.Task{
		Name:    "periodic:" + pt.name,
		Release: pt.engine.clk.Now() + delay,
		Fn:      pt.run,
	})
	if err != nil {
		pt.mu.Lock()
		pt.stopped = true
		pt.mu.Unlock()
	}
}

func (pt *periodicTask) run(task *sched.Task) error {
	e := pt.engine
	tx := e.Txns.Begin()
	// Periodic recomputes are read-mostly full recomputations: read from a
	// consistent snapshot (lock-free) while any writes keep the two-level
	// lock protocol. A periodic function that incrementally
	// read-modify-writes a row must read it via ctx.QueryLocked, which
	// takes real S locks — snapshot reads would let two concurrent runs
	// read the same pre-image and lose an update.
	tx.EnableSnapshotReads()
	ctx := &ActionContext{engine: e, tx: tx}
	err := callAction(pt.fn, ctx)
	if err == nil {
		err = tx.Commit()
	} else if tx.Status() == txn.Active {
		// Abort even after a recovered panic so locks release.
		if abortErr := tx.Abort(); abortErr != nil {
			err = fmt.Errorf("%w; abort failed: %v", err, abortErr)
		}
	}
	if err != nil && IsRetryable(err) && pt.attempt < retry.Default.Retries {
		// Transient concurrency abort: retry this run with backoff instead
		// of waiting out a whole interval, and don't count it as a failure.
		pt.attempt++
		pt.mu.Lock()
		pt.restarts++
		pt.mu.Unlock()
		e.Sched.NoteRetried()
		pt.submitAfter(clock.FromDuration(retry.Default.Delay(pt.attempt, uint64(task.ID))))
		return nil
	}
	pt.attempt = 0
	pt.mu.Lock()
	pt.runs++
	if err != nil {
		pt.failures++
	}
	pt.mu.Unlock()
	pt.scheduleNext()
	return err
}
