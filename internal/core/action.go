package core

import (
	"errors"
	"fmt"

	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/cost"
	"github.com/stripdb/strip/internal/fault"
	"github.com/stripdb/strip/internal/obs"
	"github.com/stripdb/strip/internal/query"
	"github.com/stripdb/strip/internal/sched"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

// ErrActionPanic wraps a panic recovered from a user function. The action's
// transaction is aborted before the error propagates, so every lock the
// panicking action held is released.
var ErrActionPanic = errors.New("core: action panicked")

// errNoSQL answers an action that runs statement text on an engine built
// without a SQL front end (Engine.SQL unset).
var errNoSQL = errors.New("core: this engine runs no SQL text; use the programmatic statement forms")

// ActionFunc is a rule action: an application-provided function executed in
// a new transaction. It receives no parameters beyond the context; data
// flows in through bound tables (paper §2).
type ActionFunc func(ctx *ActionContext) error

// ActionContext is the environment a rule action runs in: a fresh
// transaction plus read-only access to the firing's bound tables, which
// shadow database tables of the same name (paper §6.3: "whenever a
// triggered task tries to access a table, its bound table list must be
// checked as well as the database catalog").
type ActionContext struct {
	engine *Engine
	task   *sched.Task
	tx     *txn.Txn
	bound  map[string]*storage.TempTable
}

// Txn returns the action's transaction.
func (c *ActionContext) Txn() *txn.Txn { return c.tx }

// Task returns the scheduler task running the action.
func (c *ActionContext) Task() *sched.Task { return c.task }

// Bound returns a bound table by name.
func (c *ActionContext) Bound(name string) (*storage.TempTable, bool) {
	tt, ok := c.bound[name]
	return tt, ok
}

// BoundNames lists the firing's bound tables.
func (c *ActionContext) BoundNames() []string {
	out := make([]string, 0, len(c.bound))
	for n := range c.bound {
		out = append(out, n)
	}
	return out
}

// Query runs a select inside the action's transaction; bound tables shadow
// database tables. Unless the rule sets LockedReads, the select reads
// lock-free from the transaction's begin snapshot — fine for recomputes,
// but rows the action then rewrites incrementally must be read through
// QueryLocked instead.
func (c *ActionContext) Query(q *query.Select) (*storage.TempTable, error) {
	return q.Run(c.tx, boundResolver{bound: c.bound})
}

// QueryLocked runs a select under S locks held to commit even when the
// action reads from a snapshot. Use it for incremental read-modify-write:
// a snapshot read of a row this action then updates can interleave with
// another action's committed write (lost update, write skew); a locked
// read serializes the two. Rule.LockedReads opts the whole action out of
// snapshot reads instead.
func (c *ActionContext) QueryLocked(q *query.Select) (*storage.TempTable, error) {
	var tt *storage.TempTable
	err := c.tx.LockedReads(func() error {
		var err error
		tt, err = q.Run(c.tx, boundResolver{bound: c.bound})
		return err
	})
	return tt, err
}

// QueryLockedWith is QueryLocked with extra temp tables visible to the
// query under their given names, shadowing both bound and database tables.
// Delta maintenance uses it to join an action-built working set (e.g. the
// affected base keys of a batch) against base tables read under S locks.
func (c *ActionContext) QueryLockedWith(q *query.Select, extra map[string]*storage.TempTable) (*storage.TempTable, error) {
	var tt *storage.TempTable
	err := c.tx.LockedReads(func() error {
		var err error
		tt, err = q.Run(c.tx, boundResolver{bound: c.bound, extra: extra})
		return err
	})
	return tt, err
}

// Exec runs one INSERT, UPDATE or DELETE given as text inside the action's
// transaction, through the engine's statement cache.
func (c *ActionContext) Exec(sql string) (int, error) {
	if c.engine.SQL == nil {
		return 0, errNoSQL
	}
	return c.engine.SQL.ExecIn(c.tx, sql)
}

// QuerySQL is Query for a SELECT given as text, through the engine's
// statement cache; bound tables shadow database tables.
func (c *ActionContext) QuerySQL(sql string) (*storage.TempTable, error) {
	if c.engine.SQL == nil {
		return nil, errNoSQL
	}
	return c.engine.SQL.QueryIn(c.tx, boundResolver{bound: c.bound}, sql)
}

// ExecUpdate runs an UPDATE statement inside the action's transaction.
func (c *ActionContext) ExecUpdate(s *query.UpdateStmt) (int, error) { return s.Run(c.tx) }

// ExecInsert runs an INSERT statement inside the action's transaction.
func (c *ActionContext) ExecInsert(s *query.InsertStmt) (int, error) { return s.Run(c.tx) }

// ExecDelete runs a DELETE statement inside the action's transaction.
func (c *ActionContext) ExecDelete(s *query.DeleteStmt) (int, error) { return s.Run(c.tx) }

// Charge adds user-function virtual CPU (e.g. Black-Scholes evaluations).
func (c *ActionContext) Charge(micros float64) { c.tx.Charge(micros) }

// Model exposes the engine cost model to user functions.
func (c *ActionContext) Model() cost.Model { return c.engine.model }

// Now returns the engine time.
func (c *ActionContext) Now() clock.Micros { return c.engine.clk.Now() }

// boundResolver resolves action-supplied extra tables first, then bound
// tables, then the database.
type boundResolver struct {
	bound map[string]*storage.TempTable
	extra map[string]*storage.TempTable
}

// Resolve implements query.Resolver.
func (r boundResolver) Resolve(tx *txn.Txn, name string) (*storage.Table, *storage.TempTable, error) {
	if tt, ok := r.extra[name]; ok {
		return nil, tt, nil
	}
	if tt, ok := r.bound[name]; ok {
		return nil, tt, nil
	}
	return query.TxnResolver{}.Resolve(tx, name)
}

// actionPayload is the rule-task TCB content (paper §6.3): bound table
// schemas + data, the user function, and uniqueness bookkeeping.
type actionPayload struct {
	engine   *Engine
	rule     string
	fnName   string
	fn       ActionFunc
	stats    *fnMetrics
	breaker  *breaker // nil when breakers are disabled
	bound    map[string]*storage.TempTable
	key      types.Key
	set      *uniqueSet // nil for non-unique actions
	restarts int
	// deadlineWindow mirrors Rule.Deadline so retries can re-derive a firm
	// deadline from their new release time.
	deadlineWindow clock.Micros
	// lockedReads mirrors Rule.LockedReads: the action's queries take S
	// locks instead of reading the begin snapshot.
	lockedReads bool
	// triggers are the completion signals (Txn.Done) of the transactions
	// whose commits fired (or merged into) this task. Tasks are submitted
	// from inside the commit hook — before the trigger's WAL write and
	// commit stamping — so the action waits for them before taking its
	// read snapshot; otherwise a lock-free recompute could miss the very
	// update that triggered it. Only the channel is kept: holding the
	// transaction itself would keep its write log and lock tables alive
	// for the whole batching window, once per merged firing. Guarded by
	// set.mu while the task is queued (merge appends under it).
	triggers []<-chan struct{}
	// createdAt is the triggering transaction's commit time: the moment the
	// derived data went stale and the measurement origin for the action
	// latency span. staleTok closes the staleness sample at action commit.
	createdAt clock.Micros
	staleTok  uint64
}

// merge appends another firing's bound rows into this payload's tables.
// Caller holds the uniqueness set lock; the task has not started.
func (p *actionPayload) merge(incoming map[string]*storage.TempTable) error {
	if len(incoming) != len(p.bound) {
		return fmt.Errorf("core: merge table-count mismatch: %d vs %d", len(incoming), len(p.bound))
	}
	for name, tt := range incoming {
		dst, ok := p.bound[name]
		if !ok {
			return fmt.Errorf("core: merge: no queued bound table %q", name)
		}
		if err := dst.AppendFrom(tt, nil); err != nil {
			return err
		}
	}
	return nil
}

// shedKey identifies an action task for supersession shedding: under
// overload a ready recompute may be dropped when a younger task for the
// same function and unique key is already queued behind it.
type shedKey struct {
	fn  string
	key types.Key
}

// discard releases everything a never-run (shed or abandoned) task holds:
// bound tables, its staleness token, and trigger references. The uniqueness
// hash entry is removed by OnStart, which the scheduler runs first.
func (p *actionPayload) discard() {
	p.stats.shed.Inc()
	p.stats.stale.Drop(p.staleTok)
	for _, tt := range p.bound {
		tt.Retire()
	}
	p.bound = nil
	p.triggers = nil
}

// newActionTask builds the scheduler task for a firing triggered by trig.
func (e *Engine) newActionTask(trig *txn.Txn, rule *Rule, fn ActionFunc, stats *fnMetrics, br *breaker,
	bound map[string]*storage.TempTable, key types.Key, set *uniqueSet, release clock.Micros, stamp clock.Micros) *sched.Task {

	payload := &actionPayload{
		engine:         e,
		rule:           rule.Name,
		fnName:         rule.Action,
		fn:             fn,
		stats:          stats,
		breaker:        br,
		bound:          bound,
		key:            key,
		set:            set,
		lockedReads:    rule.LockedReads,
		deadlineWindow: rule.Deadline,
		createdAt:      stamp,
		staleTok:       stats.stale.Track(stamp),
	}
	if trig != nil {
		payload.triggers = []<-chan struct{}{trig.Done()}
	}
	task := &sched.Task{
		// The id is reserved up front (not at Submit) so merge trace events
		// can reference the queued task without racing its submission.
		ID:      e.Sched.ReserveID(),
		Name:    rule.Action,
		Release: release,
		Value:   rule.Value,
		Payload: payload,
	}
	if trig != nil {
		// Inherit the triggering commit's causal chain; merged firings keep
		// the first trigger's chain and cross-link via rule.merge events.
		task.Trace = trig.Trace()
	}
	if rule.Deadline > 0 {
		task.Deadline = release + rule.Deadline
	}
	if rule.Firm {
		task.Firm = true
		task.ShedKey = shedKey{fn: rule.Action, key: key}
		task.ShedCost = shedCost(stats, rule)
		// Re-price at shed time from the live profile: a maintenance
		// function that switched to cheap delta recomputes (or got faster
		// for any reason) sheds earlier than its stale enqueue-time cost
		// would suggest. Reads only atomics — safe under the scheduler lock.
		task.CostFn = func() float64 { return shedCost(stats, rule) }
	}
	task.OnShed = func(t *sched.Task) {
		t.Payload.(*actionPayload).discard()
	}
	// When the task is dequeued its bound tables freeze: remove it from the
	// uniqueness hash so subsequent firings start a new task (paper §2).
	if set != nil {
		task.OnStart = func(t *sched.Task) {
			set.mu.Lock()
			if set.pending[key] == t {
				delete(set.pending, key)
			}
			set.mu.Unlock()
		}
	}
	task.Fn = e.runAction
	return task
}

// shedCost prices a firm firing for cost-ordered overload shedding: the
// function's profiled mean work (virtual CPU per run, from the PR 6 cost
// profiles) per microsecond of staleness a drop would add — the rule's
// deadline, else its batching delay, else one second. Functions that have
// never run return 0 and keep the seed's pop-order shedding.
func shedCost(stats *fnMetrics, rule *Rule) float64 {
	runs := stats.run.Load()
	if runs <= 0 {
		return 0
	}
	window := rule.Deadline
	if window <= 0 {
		window = rule.Delay
	}
	if window <= 0 {
		window = 1_000_000
	}
	return stats.work.Load() / float64(runs) / float64(window)
}

// callAction invokes the user function with panic isolation: a panic in
// user code becomes an ErrActionPanic error instead of killing the worker,
// and the caller's abort path then releases the transaction's locks. The
// fault point lets the chaos harness inject panics at this boundary.
func callAction(fn ActionFunc, ctx *ActionContext) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrActionPanic, r)
		}
	}()
	if fault.Armed() {
		if ferr := fault.ErrorAt(fault.ActionPanic); ferr != nil {
			panic(ferr)
		}
	}
	return fn(ctx)
}

// runAction executes a rule action task: new transaction, user function,
// commit; deadlock victims are resubmitted (restart) up to
// maxActionRestarts times. Bound tables are reclaimed when the task
// finishes for good (paper §6.3).
func (e *Engine) runAction(task *sched.Task) error {
	p := task.Payload.(*actionPayload)
	startWork := e.meter.Micros()
	queued := task.QueueTime()

	// Tasks are submitted from inside the commit hook, so a worker can
	// dequeue one before its triggering transactions have stamped their
	// versions. Wait for them (commit stamping completes before Wait
	// returns), then read lock-free: the snapshot taken below is
	// guaranteed to include every triggering update. Writes keep the
	// two-level lock protocol for write-write conflicts; reads that feed
	// incremental writes must go through QueryLocked (or the rule sets
	// LockedReads), since two snapshot readers updating the same row would
	// lose one update.
	for _, done := range p.triggers {
		<-done
	}
	p.triggers = nil

	tx := e.Txns.Begin()
	if !p.lockedReads {
		tx.EnableSnapshotReads()
	}
	// Link the action transaction into the triggering commit's causal chain
	// and point its row/lock-wait accounting at the rule's cost profile.
	tx.SetCause(task.Trace, task.ID)
	tp := &txn.TxnProfile{}
	tx.SetProfile(tp)
	ctx := &ActionContext{engine: e, task: task, tx: tx, bound: p.bound}
	err := callAction(p.fn, ctx)
	if err == nil {
		err = tx.Commit()
	} else if tx.Status() == txn.Active {
		// Always abort on error — including recovered panics — so the
		// transaction's locks are released no matter how the action died.
		if abortErr := tx.Abort(); abortErr != nil {
			err = fmt.Errorf("%w; abort failed: %v", err, abortErr)
		}
	}

	work := e.meter.Micros() - startWork
	p.stats.prof.AddRows(tp.RowsScanned, tp.RowsMatched, tp.RowsWritten)
	p.stats.prof.AddLockWait(tp.LockWaitMicros)

	if err != nil && IsRetryable(err) && p.restarts < maxActionRestarts && e.Sched.AllowRetry() {
		// Restart with capped exponential backoff and deterministic jitter
		// (paper §3: real-time transactions may be restarted). The staleness
		// token stays open — the derived data is still stale.
		p.restarts++
		p.stats.restarts.Inc()
		p.stats.work.Add(work)
		p.stats.queueMicros.Add(queued)
		now := e.clk.Now()
		release := now + retryBackoff(p.restarts, task.ID)
		retry := &sched.Task{
			Name:     task.Name,
			Trace:    task.Trace,
			Release:  release,
			Value:    task.Value,
			Firm:     task.Firm,
			ShedKey:  task.ShedKey,
			ShedCost: task.ShedCost,
			CostFn:   task.CostFn,
			OnShed:   task.OnShed,
			Payload:  p,
			Fn:       e.runAction,
		}
		if p.deadlineWindow > 0 {
			retry.Deadline = release + p.deadlineWindow
		}
		if e.Sched.Submit(retry) == nil {
			e.Sched.NoteRetried()
			e.tracer.EmitSpan(now, obs.KindTaskRetry, p.fnName, int64(p.restarts), task.Trace, task.ID)
			return nil
		}
		// Scheduler is shutting down: fall through to the permanent path so
		// the payload's resources are released.
	}

	finished := e.clk.Now()
	p.stats.run.Inc()
	p.stats.work.Add(work)
	p.stats.queueMicros.Add(queued)
	p.stats.latency.Record(finished - p.createdAt)
	if err != nil {
		p.stats.errs.Inc()
		// The recompute never committed; drop the pending stamp rather than
		// record a bogus closing sample.
		p.stats.stale.Drop(p.staleTok)
		if p.breaker != nil && p.breaker.onFailure(finished) {
			e.tracer.Emit(finished, obs.KindRuleQuarantine, p.fnName, int64(p.restarts))
		}
	} else {
		p.stats.stale.Observe(p.staleTok, finished)
		// Close the chain with the staleness sample this recompute settles:
		// Arg is the age of the oldest update it made fresh. Deadline SLO
		// burn is judged on the same age.
		age := finished - p.createdAt
		e.tracer.EmitSpan(finished, obs.KindStaleSample, p.fnName, age, task.Trace, task.ID)
		if p.deadlineWindow > 0 && age > p.deadlineWindow {
			p.stats.prof.NoteSLOBreach()
		}
		if p.breaker != nil {
			p.breaker.onSuccess()
		}
	}
	e.tracer.EmitSpan(finished, obs.KindActionDone, p.fnName, finished-p.createdAt, task.Trace, task.ID)
	for _, tt := range p.bound {
		tt.Retire()
	}
	return err
}
