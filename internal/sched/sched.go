package sched

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/cost"
	"github.com/stripdb/strip/internal/fault"
	"github.com/stripdb/strip/internal/obs"
)

// ErrStopped is returned by Submit once the scheduler is stopping: the task
// was not enqueued and will never run. The facade exposes it as
// strip.ErrShuttingDown.
var ErrStopped = errors.New("sched: scheduler is shutting down")

// ErrTaskPanic wraps a panic that escaped a task body; the worker survives
// and the task is counted failed.
var ErrTaskPanic = errors.New("sched: task panicked")

// Overload configures deadline-aware overload control (paper §2's
// staleness-for-CPU trade, made automatic). The zero value disables it.
// When the ready queue crosses either threshold the scheduler (1) sheds
// firm tasks that are past their deadline or superseded by a younger task
// with the same ShedKey, and (2) reports a widening factor > 1 so the rule
// engine stretches unique-transaction batching windows, trading staleness
// for fewer recomputes instead of letting lag grow without bound.
type Overload struct {
	// ShedDepth is the ready-queue depth at which the scheduler is
	// considered overloaded (0 disables the depth trigger).
	ShedDepth int
	// ShedLag is the queueing lag (now - release) past which a task is
	// considered overloaded (0 disables the lag trigger).
	ShedLag clock.Micros
	// WidenMax caps the adaptive batching widen factor (values <= 1
	// disable widening). The factor grows linearly with ready-queue depth:
	// depth/ShedDepth, clamped to WidenMax.
	WidenMax float64
	// WidenBase is the delay substituted for a zero batching window when
	// widening engages, so rules with no `after` clause still batch under
	// overload.
	WidenBase clock.Micros
}

// enabled reports whether any overload trigger is configured.
func (o Overload) enabled() bool { return o.ShedDepth > 0 || o.ShedLag > 0 }

// Scheduler owns the delay and ready queues (paper Figure 15). It can be
// driven two ways:
//
//   - live mode: Start launches a worker pool that executes tasks as they
//     become ready on a real clock;
//   - stepped mode: the experiment driver calls Step/NextEventTime on a
//     virtual clock, executing tasks deterministically in release order.
type Scheduler struct {
	clk    clock.Clock
	policy Policy
	meter  *cost.Meter
	model  cost.Model

	mu       sync.Mutex
	cond     *sync.Cond
	delay    delayHeap
	ready    readyHeap
	draining bool // Submit rejects; workers keep running (StopDrain)
	stopped  bool // workers exit
	running  int  // tasks currently executing in workers
	idle     int  // workers parked in cond.Wait
	nextSeq  int64
	// wake is the scheduler's one timer: armed (by an idle worker, or by
	// Submit when workers are idle) for the delay queue's head release, it
	// broadcasts to the parked workers. wakeAt is the release it is armed
	// for, 0 when unarmed. Never armed in stepped mode (no workers).
	wake   *time.Timer
	wakeAt clock.Micros
	// nextID is atomic (not under mu) so ReserveID can pre-allocate task
	// ids for callers that must reference a task before submitting it.
	nextID atomic.Int64

	// overload is the overload-control policy (zero = disabled). Written
	// by SetOverload before concurrent use, read under mu (shedding) and
	// without it (WidenDelay reads the qReady gauge, not the heap).
	overload Overload
	// keyCounts tracks how many ready tasks carry each ShedKey, for
	// supersession shedding. Guarded by mu.
	keyCounts map[any]int

	// starts[startsHead:] holds start times within the trailing second,
	// modeling scheduling cost that grows with task rate (the paper's
	// "critical region", §5.1). Virtual-cost only: never touched when the
	// model's SchedPerTaskRate is zero (the live engine).
	starts     []clock.Micros
	startsHead int

	// Registry-backed instruments (see Instrument).
	submitted    *obs.Counter
	completed    *obs.Counter
	failed       *obs.Counter
	shed         *obs.Counter
	abandoned    *obs.Counter
	retried      *obs.Counter
	panics       *obs.Counter
	qReady       *obs.Gauge
	qDelayed     *obs.Gauge
	lagGauge     *obs.Gauge
	widenGauge   *obs.Gauge
	relToStart   *obs.Histogram
	runMicros    *obs.Histogram
	releaseBatch *obs.Histogram
	tracer       *obs.Tracer

	wg sync.WaitGroup
}

// New creates a scheduler with a private metrics registry.
func New(clk clock.Clock, policy Policy, meter *cost.Meter, model cost.Model) *Scheduler {
	s := &Scheduler{clk: clk, policy: policy, meter: meter, model: model,
		keyCounts: make(map[any]int)}
	s.ready.policy = policy
	s.cond = sync.NewCond(&s.mu)
	s.Instrument(obs.NewRegistry())
	return s
}

// SetOverload installs the overload-control policy. Call before Start.
func (s *Scheduler) SetOverload(o Overload) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.overload = o
	s.widenGauge.Set(100)
}

// Instrument rebinds the scheduler's counters, queue-depth gauges, latency
// histograms, and tracer to reg. Call before Start.
func (s *Scheduler) Instrument(reg *obs.Registry) {
	s.submitted = reg.Counter(obs.MSchedSubmitted)
	s.completed = reg.Counter(obs.MSchedCompleted)
	s.failed = reg.Counter(obs.MSchedFailed)
	s.shed = reg.Counter(obs.MSchedShed)
	s.abandoned = reg.Counter(obs.MSchedAbandoned)
	s.retried = reg.Counter(obs.MSchedRetried)
	s.panics = reg.Counter(obs.MSchedPanics)
	s.qReady = reg.Gauge(obs.MSchedQueueReady)
	s.qDelayed = reg.Gauge(obs.MSchedQueueDelayed)
	s.lagGauge = reg.Gauge(obs.MSchedLagMicros)
	s.widenGauge = reg.Gauge(obs.MSchedWidenPct)
	s.widenGauge.Set(100)
	s.relToStart = reg.Histogram(obs.MSchedReleaseToStart)
	s.runMicros = reg.Histogram(obs.MSchedRunMicros)
	s.releaseBatch = reg.Histogram(obs.MSchedReleaseBatch)
	s.tracer = reg.Tracer()
}

// depthsLocked refreshes the queue-depth gauges; call with s.mu held after
// any queue mutation.
func (s *Scheduler) depthsLocked() {
	s.qDelayed.Set(int64(s.delay.Len()))
	s.qReady.Set(int64(s.ready.Len()))
}

// Submit enqueues a task: into the delay queue if its release time is in
// the future, otherwise the ready queue. Once the scheduler is stopping
// (Stop or StopDrain) it returns ErrStopped and the task is not enqueued —
// the caller keeps ownership of any resources the task carries.
func (s *Scheduler) Submit(t *Task) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.stopped {
		return ErrStopped
	}
	now := s.clk.Now()
	if t.ID == 0 {
		t.ID = s.nextID.Add(1)
	}
	s.nextSeq++
	t.seq = s.nextSeq
	t.EnqueuedAt = now
	s.submitted.Inc()
	if t.Release > now {
		heap.Push(&s.delay, t)
		if s.idle > 0 && s.delay.peek() == t {
			// Parked workers sleep until the old head's release (or for
			// good); re-aim the timer instead of waking them to do it.
			s.armWakeLocked(now)
		}
	} else {
		s.pushReadyLocked(t)
		s.cond.Signal()
	}
	s.depthsLocked()
	s.tracer.EmitSpan(now, obs.KindTaskSubmit, t.Name, t.ID, t.Trace, t.Trace)
	return nil
}

// ReserveID pre-allocates a task id, letting the caller reference the task
// (uniqueness hash entries, trace-event parents) before Submit. Submit
// keeps a non-zero ID.
func (s *Scheduler) ReserveID() int64 { return s.nextID.Add(1) }

// pushReadyLocked enters a task into the ready queue and its ShedKey into
// the supersession count.
func (s *Scheduler) pushReadyLocked(t *Task) {
	heap.Push(&s.ready, t)
	if t.ShedKey != nil {
		s.keyCounts[t.ShedKey]++
	}
}

// popReadyLocked removes the policy head from the ready queue and its
// ShedKey from the supersession count.
func (s *Scheduler) popReadyLocked() *Task {
	t := heap.Pop(&s.ready).(*Task)
	if t.ShedKey != nil {
		if c := s.keyCounts[t.ShedKey] - 1; c > 0 {
			s.keyCounts[t.ShedKey] = c
		} else {
			delete(s.keyCounts, t.ShedKey)
		}
	}
	return t
}

// releaseDueLocked moves tasks whose release time has arrived to the ready
// queue and returns how many it moved. Tasks re-enter FIFO order at release
// time, not submission time: the ready queue sees them in the order they
// became runnable.
func (s *Scheduler) releaseDueLocked(now clock.Micros) (released int) {
	for s.delay.Len() > 0 && s.delay.peek().Release <= now {
		t := heap.Pop(&s.delay).(*Task)
		s.nextSeq++
		t.seq = s.nextSeq
		s.pushReadyLocked(t)
		released++
	}
	if released > 0 {
		s.releaseBatch.Record(int64(released))
		s.depthsLocked()
	}
	return released
}

// NextEventTime reports the earliest pending event: the head of the ready
// queue (now) or the next delayed release. ok is false when idle.
func (s *Scheduler) NextEventTime() (clock.Micros, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ready.Len() > 0 {
		return s.clk.Now(), true
	}
	if s.delay.Len() > 0 {
		return s.delay.peek().Release, true
	}
	return 0, false
}

// Pending reports queued task counts (delayed, ready).
func (s *Scheduler) Pending() (delayed, ready int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.delay.Len(), s.ready.Len()
}

// Idle reports quiescence: no task delayed, ready or running. A running
// task submits its follow-ups before it stops counting as running, so a
// true answer means every task submitted so far has finished.
func (s *Scheduler) Idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idleLocked(true)
}

// idleLocked is the scheduler's one idle predicate: nothing ready and
// nothing running, and — when delayed is set — nothing waiting for its
// release either (StopDrain does not wait for those; it abandons them).
func (s *Scheduler) idleLocked(delayed bool) bool {
	return s.ready.Len() == 0 && s.running == 0 && (!delayed || s.delay.Len() == 0)
}

// Step runs the next ready task at the current clock time, if any. It
// returns the task it executed (after completion) or nil when nothing was
// ready. Used by the virtual-time experiment driver.
func (s *Scheduler) Step() *Task {
	s.mu.Lock()
	t := s.dequeueLocked()
	s.mu.Unlock()
	if t == nil {
		return nil
	}
	s.execute(t)
	return t
}

// dequeueLocked pops the next ready task and performs start accounting.
// Under overload, firm tasks that are past their deadline or superseded by
// a younger same-key task are shed instead of returned.
func (s *Scheduler) dequeueLocked() *Task {
	now := s.clk.Now()
	s.releaseDueLocked(now)
	s.costShedLocked(now)
	for s.ready.Len() > 0 {
		depth := s.ready.Len()
		t := s.popReadyLocked()
		lag := s.taskLag(t, now)
		s.lagGauge.Set(lag)
		if s.shouldShedLocked(t, now, depth, lag) {
			s.shedLocked(t, now)
			continue
		}
		t.StartedAt = now
		s.depthsLocked()
		s.relToStart.Record(t.QueueTime())
		s.tracer.EmitSpan(now, obs.KindTaskStart, t.Name, t.ID, t.Trace, t.ID)
		s.chargeStartLocked(now)
		if t.OnStart != nil {
			t.OnStart(t)
		}
		return t
	}
	s.depthsLocked()
	return nil
}

// taskLag is how long t has been runnable: now minus the later of release
// and submission.
func (s *Scheduler) taskLag(t *Task, now clock.Micros) clock.Micros {
	rel := t.Release
	if rel < t.EnqueuedAt {
		rel = t.EnqueuedAt
	}
	return now - rel
}

// shouldShedLocked applies the overload policy to a popped task. depth is
// the ready-queue length including t.
func (s *Scheduler) shouldShedLocked(t *Task, now clock.Micros, depth int, lag clock.Micros) bool {
	o := s.overload
	if !o.enabled() || !t.Firm {
		return false
	}
	overloaded := (o.ShedDepth > 0 && depth >= o.ShedDepth) ||
		(o.ShedLag > 0 && lag > o.ShedLag)
	if !overloaded {
		return false
	}
	if t.Deadline > 0 && now > t.Deadline {
		return true // firm deadline missed: result would be useless
	}
	if t.ShedKey != nil && s.keyCounts[t.ShedKey] > 0 {
		return true // a younger ready task recomputes from fresher state
	}
	return false
}

// costShedLocked sheds by drop value instead of pop order: when the ready
// queue is at or past the depth trigger, the shed-eligible firm tasks
// that carry a cost profile (ShedCost > 0) are dropped highest cost first
// — most evaluate CPU reclaimed per microsecond of staleness incurred —
// until the queue falls below the trigger. Tasks without a profile are
// untouched; they stay on the seed pop-order path in shouldShedLocked, so
// a workload with no ShedCost anywhere sheds exactly as before.
func (s *Scheduler) costShedLocked(now clock.Micros) {
	o := s.overload
	if !o.enabled() || o.ShedDepth <= 0 || s.ready.Len() < o.ShedDepth {
		return
	}
	// The youngest ready task per ShedKey must survive — it recomputes
	// from the freshest state; its elders are superseded and eligible.
	youngest := make(map[any]int64)
	for _, t := range s.ready.items {
		if t.ShedKey != nil && t.seq > youngest[t.ShedKey] {
			youngest[t.ShedKey] = t.seq
		}
	}
	var victims []*Task
	for _, t := range s.ready.items {
		if t.CostFn != nil {
			// Refresh from the live profile: tasks enqueued before their
			// function's cost changed (e.g. maintenance that switched to
			// cheap delta recomputes) are ordered by what a drop reclaims
			// NOW, not by a stale enqueue-time estimate.
			t.ShedCost = t.CostFn()
		}
		if !t.Firm || t.ShedCost <= 0 {
			continue
		}
		if (t.Deadline > 0 && now > t.Deadline) ||
			(t.ShedKey != nil && t.seq != youngest[t.ShedKey]) {
			victims = append(victims, t)
		}
	}
	if len(victims) == 0 {
		return
	}
	sort.Slice(victims, func(i, j int) bool {
		if victims[i].ShedCost != victims[j].ShedCost {
			return victims[i].ShedCost > victims[j].ShedCost
		}
		return victims[i].seq < victims[j].seq
	})
	need := s.ready.Len() - o.ShedDepth + 1
	if need > len(victims) {
		need = len(victims)
	}
	drop := make(map[*Task]bool, need)
	for _, t := range victims[:need] {
		drop[t] = true
	}
	kept := s.ready.items[:0]
	for _, t := range s.ready.items {
		if !drop[t] {
			kept = append(kept, t)
		}
	}
	for i := len(kept); i < len(s.ready.items); i++ {
		s.ready.items[i] = nil
	}
	s.ready.items = kept
	heap.Init(&s.ready)
	for _, t := range victims[:need] {
		if t.ShedKey != nil {
			if c := s.keyCounts[t.ShedKey] - 1; c > 0 {
				s.keyCounts[t.ShedKey] = c
			} else {
				delete(s.keyCounts, t.ShedKey)
			}
		}
		s.shedLocked(t, now)
	}
	s.depthsLocked()
}

// shedLocked drops a task: OnStart (uniqueness-hash removal) then OnShed
// (resource reclamation) run as if the task had been dequeued, but the body
// never executes and the task counts as shed, not failed.
func (s *Scheduler) shedLocked(t *Task, now clock.Micros) {
	t.StartedAt = now
	s.shed.Inc()
	s.tracer.EmitSpan(now, obs.KindTaskShed, t.Name, t.ID, t.Trace, t.ID)
	if t.OnStart != nil {
		t.OnStart(t)
	}
	if t.OnShed != nil {
		t.OnShed(t)
	}
}

// WidenDelay adaptively stretches a unique-rule batching window under
// overload (SharedDB-style load-adaptive batching: more firings merge into
// each queued task, trading staleness for recompute CPU). It is lock-free —
// the depth is read from the qReady gauge — so the commit hook can call it
// on every firing. Returns d unchanged when overload control or widening is
// disabled or the queue is below the shed depth.
func (s *Scheduler) WidenDelay(d clock.Micros) clock.Micros {
	o := s.overload
	if !o.enabled() || o.WidenMax <= 1 || o.ShedDepth <= 0 {
		return d
	}
	depth := s.qReady.Load()
	if depth < int64(o.ShedDepth) {
		s.widenGauge.Set(100)
		return d
	}
	f := float64(depth) / float64(o.ShedDepth)
	if f > o.WidenMax {
		f = o.WidenMax
	}
	s.widenGauge.Set(int64(f * 100))
	if d == 0 {
		d = o.WidenBase
	}
	return clock.Micros(float64(d) * f)
}

// NoteRetried counts a transient-failure resubmission (deadlock victim or
// wait-timeout abort rescheduled with backoff by the rule engine), keeping
// retried work distinguishable from failures in Metrics().
func (s *Scheduler) NoteRetried() { s.retried.Inc() }

// chargeStartLocked charges per-start scheduling cost proportional to the
// number of task starts in the trailing second. Start times arrive in clock
// order, so the window is a queue: expired starts leave at the head (each
// start is appended once and passed once — O(1) amortised) and the spent
// prefix is reclaimed when it outgrows the live part. A model that does not
// price start rate keeps no window at all.
func (s *Scheduler) chargeStartLocked(now clock.Micros) {
	if s.model.SchedPerTaskRate == 0 {
		return
	}
	cutoff := now - 1_000_000
	for s.startsHead < len(s.starts) && s.starts[s.startsHead] <= cutoff {
		s.startsHead++
	}
	if s.startsHead > len(s.starts)-s.startsHead {
		s.starts = s.starts[:copy(s.starts, s.starts[s.startsHead:])]
		s.startsHead = 0
	}
	s.starts = append(s.starts, now)
	s.meter.Charge(s.model.SchedPerTaskRate * float64(len(s.starts)-s.startsHead))
}

// execute runs a task body with task-shell accounting.
func (s *Scheduler) execute(t *Task) {
	s.meter.Charge(s.model.BeginTask)
	if t.Fn != nil {
		t.Err = s.runBody(t)
	}
	t.FinishedAt = s.clk.Now()
	s.meter.Charge(s.model.EndTask)
	s.runMicros.Record(t.FinishedAt - t.StartedAt)
	s.tracer.EmitSpan(t.FinishedAt, obs.KindTaskFinish, t.Name, t.FinishedAt-t.StartedAt, t.Trace, t.ID)
	if t.Err != nil {
		s.failed.Inc()
	} else {
		s.completed.Inc()
	}
}

// runBody invokes the task function, converting a panic into an error so a
// panicking task can never kill a worker goroutine. Rule actions recover
// their own panics (and abort their transaction) before this; runBody is
// the last line of defense for non-action tasks and engine plumbing.
func (s *Scheduler) runBody(t *Task) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Inc()
			err = fmt.Errorf("%w: %v", ErrTaskPanic, r)
		}
	}()
	return t.Fn(t)
}

// Start launches n worker goroutines servicing the ready queue on the real
// clock. Call Stop to drain and terminate.
func (s *Scheduler) Start(n int) {
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// worker services the ready queue. One critical section per task: the
// lock taken after a task finishes retires it (running--), dequeues the
// next one and marks it running before the lock is dropped again.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		t := s.nextLocked()
		if t == nil {
			s.mu.Unlock()
			return
		}
		s.running++
		s.mu.Unlock()
		if fault.Armed() {
			fault.Stall(fault.SchedWorkerStall)
		}
		s.execute(t)
		s.mu.Lock()
		s.running--
	}
}

// nextLocked blocks until a task is ready and returns it, or returns nil
// once the scheduler has stopped. Idle workers all park on the condition
// variable; Submit signals one per new ready task, and the scheduler's
// timer broadcasts when the delay queue's head comes due.
func (s *Scheduler) nextLocked() *Task {
	for !s.stopped {
		if t := s.dequeueLocked(); t != nil {
			if s.idle > 0 && s.ready.Len() > 0 {
				// A release moved several tasks over at once; pass the
				// wake-up on so parked workers share them.
				s.cond.Signal()
			}
			return t
		}
		if s.delay.Len() > 0 && !s.armWakeLocked(s.clk.Now()) {
			continue // the head came due since dequeueLocked looked
		}
		s.idle++
		s.cond.Wait()
		s.idle--
	}
	return nil
}

// armWakeLocked aims the scheduler's timer at the delay queue's head
// release, unless it is already armed for that moment or an earlier one (it
// then fires, finds nothing due, and the woken worker re-arms it). It
// reports false when the head is already due. Caller holds mu and has
// checked that the delay queue is not empty.
func (s *Scheduler) armWakeLocked(now clock.Micros) bool {
	release := s.delay.peek().Release
	if release <= now {
		return false
	}
	if s.wakeAt != 0 && s.wakeAt <= release {
		return true
	}
	s.wakeAt = release
	d := time.Duration(release-now) * time.Microsecond
	if s.wake == nil {
		s.wake = time.AfterFunc(d, s.onWake)
	} else {
		s.wake.Reset(d)
	}
	return true
}

// onWake is the timer callback: the delay queue's head is (probably) due,
// so parked workers re-run dequeueLocked, which releases it. A stale fire —
// the timer was re-aimed while this callback was already starting — is a
// harmless early broadcast: the workers find nothing due and re-arm.
func (s *Scheduler) onWake() {
	s.mu.Lock()
	s.wakeAt = 0
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Stop terminates the worker pool: new submissions fail with ErrStopped,
// workers finish their in-flight task and exit, and everything still queued
// (ready or delayed) is discarded through its OnStart/OnShed cleanup and
// counted abandoned. Use StopDrain to let queued ready work finish first.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.stopped = true
	if s.wake != nil {
		s.wake.Stop()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	s.discardQueuedLocked()
	s.mu.Unlock()
}

// StopDrain rejects new submissions immediately, waits (bounded by timeout)
// for already-queued ready work and in-flight tasks to finish, then stops
// the workers. Unlike the old stop/submit race — where a Submit could slip
// in after the drain check and be silently abandoned — a submission now
// either lands before the drain began (and is executed or discarded through
// its cleanup hooks) or fails with ErrStopped.
func (s *Scheduler) StopDrain(timeout time.Duration) {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		// Delayed tasks whose release arrives during the drain still run;
		// unreleased ones are abandoned by Stop, as before.
		if s.releaseDueLocked(s.clk.Now()) > 0 {
			s.cond.Broadcast()
		}
		idle := s.idleLocked(false)
		s.mu.Unlock()
		if idle || time.Now().After(deadline) {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	s.Stop()
}

// discardQueuedLocked empties both queues at Stop, running each task's
// OnStart/OnShed cleanup so owners reclaim resources (bound tables,
// uniqueness-hash entries) and counting the tasks abandoned.
func (s *Scheduler) discardQueuedLocked() {
	now := s.clk.Now()
	for s.ready.Len() > 0 {
		t := s.popReadyLocked()
		s.abandoned.Inc()
		if t.OnStart != nil {
			t.OnStart(t)
		}
		if t.OnShed != nil {
			t.OnShed(t)
		}
		s.tracer.EmitSpan(now, obs.KindTaskShed, t.Name, t.ID, t.Trace, t.ID)
	}
	for s.delay.Len() > 0 {
		t := heap.Pop(&s.delay).(*Task)
		s.abandoned.Inc()
		if t.OnStart != nil {
			t.OnStart(t)
		}
		if t.OnShed != nil {
			t.OnShed(t)
		}
		s.tracer.EmitSpan(now, obs.KindTaskShed, t.Name, t.ID, t.Trace, t.ID)
	}
	s.depthsLocked()
}

// Drain runs ready tasks until both queues are empty or only undue delayed
// tasks remain, using the caller's goroutine (live tests).
func (s *Scheduler) Drain() {
	for {
		if t := s.Step(); t == nil {
			return
		}
	}
}

// Stats returns scheduler counters — a lock-free view over the registry
// atomics, race-clean while workers run. A task is counted submitted before
// it can finish, so the counters that lag it (completed, failed) are loaded
// first: a snapshot taken mid-flight never shows more tasks finished than
// submitted.
func (s *Scheduler) Stats() Stats {
	completed, failed := s.completed.Load(), s.failed.Load()
	return Stats{
		Submitted: s.submitted.Load(),
		Completed: completed,
		Failed:    failed,
		Shed:      s.shed.Load(),
		Abandoned: s.abandoned.Load(),
		Retried:   s.retried.Load(),
		Panics:    s.panics.Load(),
	}
}

// delayHeap orders tasks by release time.
type delayHeap struct{ items []*Task }

func (h *delayHeap) Len() int { return len(h.items) }
func (h *delayHeap) Less(i, j int) bool {
	if h.items[i].Release != h.items[j].Release {
		return h.items[i].Release < h.items[j].Release
	}
	return h.items[i].seq < h.items[j].seq
}
func (h *delayHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *delayHeap) Push(x any)    { h.items = append(h.items, x.(*Task)) }
func (h *delayHeap) peek() *Task   { return h.items[0] }
func (h *delayHeap) Pop() (out any) {
	n := len(h.items)
	out = h.items[n-1]
	h.items[n-1] = nil
	h.items = h.items[:n-1]
	return out
}

// readyHeap orders tasks by the scheduling policy.
type readyHeap struct {
	policy Policy
	items  []*Task
}

func (h *readyHeap) Len() int           { return len(h.items) }
func (h *readyHeap) Less(i, j int) bool { return h.policy.less(h.items[i], h.items[j]) }
func (h *readyHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *readyHeap) Push(x any)         { h.items = append(h.items, x.(*Task)) }
func (h *readyHeap) Pop() (out any) {
	n := len(h.items)
	out = h.items[n-1]
	h.items[n-1] = nil
	h.items = h.items[:n-1]
	return out
}
