package core

import (
	"errors"
	"fmt"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/cost"
	"github.com/stripdb/strip/internal/fault"
	"github.com/stripdb/strip/internal/obs"
	"github.com/stripdb/strip/internal/query"
	"github.com/stripdb/strip/internal/retry"
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
// checked as well as the database catalog"). It is itself the resolver the
// action's queries run under.
type ActionContext struct {
	engine *Engine
	task   *sched.Task
	tx     *txn.Txn
	// sig names and defines the bound tables; bound holds them, slot for
	// slot. Both are empty for a periodic task.
	sig   []*catalog.Schema
	bound []*storage.TempTable
}

// Txn returns the action's transaction.
func (c *ActionContext) Txn() *txn.Txn { return c.tx }

// Task returns the scheduler task running the action.
func (c *ActionContext) Task() *sched.Task { return c.task }

// Bound returns a bound table by name.
func (c *ActionContext) Bound(name string) (*storage.TempTable, bool) {
	for i, s := range c.sig {
		if s.Name() == name {
			return c.bound[i], true
		}
	}
	return nil, false
}

// BoundNames lists the firing's bound tables.
func (c *ActionContext) BoundNames() []string {
	out := make([]string, len(c.sig))
	for i, s := range c.sig {
		out[i] = s.Name()
	}
	return out
}

// Resolve implements query.Resolver: bound tables, then the database.
func (c *ActionContext) Resolve(tx *txn.Txn, name string) (*storage.Table, *storage.TempTable, error) {
	if tt, ok := c.Bound(name); ok {
		return nil, tt, nil
	}
	return query.TxnResolver{}.Resolve(tx, name)
}

// Query runs a select inside the action's transaction; bound tables shadow
// database tables. Unless the rule sets LockedReads, the select reads
// lock-free from the transaction's begin snapshot — fine for recomputes,
// but rows the action then rewrites incrementally must be read through
// QueryLocked instead.
func (c *ActionContext) Query(q *query.Select) (*storage.TempTable, error) {
	return q.Run(c.tx, c)
}

// QueryLocked runs a select under S locks held to commit even when the
// action reads from a snapshot. Use it for incremental read-modify-write:
// a snapshot read of a row this action then updates can interleave with
// another action's committed write (lost update, write skew); a locked
// read serializes the two. Rule.LockedReads opts the whole action out of
// snapshot reads instead.
func (c *ActionContext) QueryLocked(q *query.Select) (*storage.TempTable, error) {
	return c.QueryLockedWith(q, nil)
}

// QueryLockedWith is QueryLocked with extra temp tables visible to the
// query under their given names, shadowing both bound and database tables.
// Delta maintenance uses it to join an action-built working set (e.g. the
// affected base keys of a batch) against base tables read under S locks.
func (c *ActionContext) QueryLockedWith(q *query.Select, extra map[string]*storage.TempTable) (*storage.TempTable, error) {
	var res query.Resolver = c
	if len(extra) > 0 {
		res = extraResolver{ctx: c, extra: extra}
	}
	var tt *storage.TempTable
	err := c.tx.LockedReads(func() error {
		var err error
		tt, err = q.Run(c.tx, res)
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
// statement cache, handing the rows to rows; bound tables shadow database
// tables.
func (c *ActionContext) QuerySQL(sql string, rows query.RowSink) error {
	if c.engine.SQL == nil {
		return errNoSQL
	}
	return c.engine.SQL.QueryIn(c.tx, c, sql, rows)
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

// extraResolver resolves action-supplied extra tables first, then as the
// context does.
type extraResolver struct {
	ctx   *ActionContext
	extra map[string]*storage.TempTable
}

// Resolve implements query.Resolver.
func (r extraResolver) Resolve(tx *txn.Txn, name string) (*storage.Table, *storage.TempTable, error) {
	if tt, ok := r.extra[name]; ok {
		return nil, tt, nil
	}
	return r.ctx.Resolve(tx, name)
}

// firing is a queued rule action — the rule-task TCB (paper §6.3): the
// scheduler task, the context its action will run in with the bound tables,
// the profile its transaction will fill, and the uniqueness bookkeeping, in
// one object. What is the same for every firing of the rule stays in the
// program; the scheduler's hooks are the package functions below, which
// find the firing through the task's payload.
type firing struct {
	task sched.Task
	ctx  ActionContext
	prof txn.TxnProfile
	prog *program
	// key is the firing's unique-column values: its entry in the program's
	// uniqueness table while it is queued.
	key      types.Key
	restarts int
	// triggers are the completion signals (Txn.Done) of the transactions
	// whose commits fired (or merged into) this task. Tasks are submitted
	// from inside the commit hook — before the trigger's WAL write and
	// commit stamping — so the action waits for them before taking its
	// read snapshot; otherwise a lock-free recompute could miss the very
	// update that triggered it. Only the channel is kept: holding the
	// transaction itself would keep its write log and lock tables alive
	// for the whole batching window, once per merged firing. Guarded by
	// the uniqueness table's lock while the task is queued (merge appends
	// under it).
	triggers []<-chan struct{}
	// createdAt is the triggering transaction's commit time: the moment the
	// derived data went stale and the measurement origin for the action
	// latency span. staleTok closes the staleness sample at action commit.
	createdAt clock.Micros
	staleTok  uint64

	// Backing for triggers and ctx.bound in the usual case: one trigger,
	// a few bound tables.
	trigger [1]<-chan struct{}
	tables  [inlineBound]*storage.TempTable
}

// newFiring builds the task for a firing triggered by trig, taking over
// the bound tables (the slice itself stays the caller's).
func (e *Engine) newFiring(trig *txn.Txn, p *program, bound []*storage.TempTable, key types.Key, release, stamp clock.Micros) *firing {
	rule := p.rule
	f := &firing{
		prog:      p,
		key:       key,
		createdAt: stamp,
		staleTok:  p.stats.stale.Track(stamp),
	}
	f.trigger[0] = trig.Done()
	f.triggers = f.trigger[:]
	f.ctx = ActionContext{engine: e, sig: p.sig, bound: append(f.tables[:0], bound...)}
	f.task = sched.Task{
		// The id is reserved up front (not at Submit) so merge trace events
		// can reference the queued task without racing its submission.
		ID:      e.Sched.ReserveID(),
		Name:    rule.Action,
		Release: release,
		Value:   rule.Value,
		// Inherit the triggering commit's causal chain; merged firings keep
		// the first trigger's chain and cross-link via rule.merge events.
		Trace:   trig.Trace(),
		Payload: f,
		Fn:      runFiring,
		OnShed:  shedFiring,
	}
	if rule.Deadline > 0 {
		f.task.Deadline = release + rule.Deadline
	}
	if rule.Firm {
		f.task.Firm = true
		f.task.ShedKey = shedKey{fn: rule.Action, key: key}
		f.task.ShedCost = shedCost(p.stats, rule)
		// Re-price at shed time from the live profile: a maintenance
		// function that switched to cheap delta recomputes (or got faster
		// for any reason) sheds earlier than its stale enqueue-time cost
		// would suggest. Reads only atomics — safe under the scheduler lock.
		f.task.CostFn = p.costFn
	}
	if p.set != nil {
		f.task.OnStart = startFiring
	}
	return f
}

func runFiring(t *sched.Task) error { return t.Payload.(*firing).run(t) }

// startFiring runs when the task is dequeued: its bound tables freeze, so
// it leaves the uniqueness hash and subsequent firings start a new task
// (paper §2).
func startFiring(t *sched.Task) {
	f := t.Payload.(*firing)
	set := f.prog.set
	set.mu.Lock()
	if set.pending[f.key] == f {
		delete(set.pending, f.key)
	}
	set.mu.Unlock()
}

// shedFiring releases everything a never-run (shed or abandoned) task
// holds: bound tables, its staleness token, and trigger references. The
// uniqueness hash entry is removed by startFiring, which the scheduler runs
// first.
func shedFiring(t *sched.Task) {
	f := t.Payload.(*firing)
	f.prog.stats.shed.Inc()
	f.prog.stats.stale.Drop(f.staleTok)
	retireAll(f.ctx.bound)
	f.ctx.bound, f.triggers = nil, nil
}

// merge moves another firing's bound rows into this one's tables, taking
// over the incoming tables, and reports how many rows that was. A table
// that is still empty here simply becomes the incoming one. Caller holds
// the uniqueness table's lock; the task has not started.
func (f *firing) merge(incoming []*storage.TempTable) (rows int, err error) {
	bound := f.ctx.bound
	if len(incoming) != len(bound) {
		return 0, fmt.Errorf("core: merge table-count mismatch: %d vs %d", len(incoming), len(bound))
	}
	for slot, in := range incoming {
		switch dst := bound[slot]; {
		case in.Len() == 0:
		case dst.Len() == 0:
			dst.Retire()
			bound[slot] = in
			rows += in.Len()
			continue
		default:
			if err := dst.AppendFrom(in); err != nil {
				return rows, err
			}
			rows += in.Len()
		}
		in.Retire()
	}
	return rows, nil
}

// shedKey identifies an action task for supersession shedding: under
// overload a ready recompute may be dropped when a younger task for the
// same function and unique key is already queued behind it.
type shedKey struct {
	fn  string
	key types.Key
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

// run executes the action: new transaction, user function, commit;
// deadlock victims are resubmitted (restart) up to retry.Default.Retries
// times.
// Bound tables are reclaimed when the task finishes for good (paper §6.3).
func (f *firing) run(task *sched.Task) error {
	p, stats := f.prog, f.prog.stats
	e := f.ctx.engine
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
	for _, done := range f.triggers {
		<-done
	}
	f.triggers = nil

	tx := e.Txns.Begin()
	if !p.rule.LockedReads {
		tx.EnableSnapshotReads()
	}
	// Link the action transaction into the triggering commit's causal chain
	// and point its row/lock-wait accounting at the rule's cost profile.
	tx.SetCause(task.Trace, task.ID)
	f.prof = txn.TxnProfile{}
	tx.SetProfile(&f.prof)
	f.ctx.task, f.ctx.tx = task, tx
	err := callAction(p.fn, &f.ctx)
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
	stats.prof.AddRows(f.prof.RowsScanned, f.prof.RowsMatched, f.prof.RowsWritten)
	stats.prof.AddLockWait(f.prof.LockWaitMicros)

	if err != nil && IsRetryable(err) && f.restarts < retry.Default.Retries {
		// Restart under the one retry policy, jittered by the task id
		// (paper §3: real-time transactions may be restarted). The staleness
		// token stays open — the derived data is still stale. The retry is
		// a task of its own: the scheduler is not done with this one yet.
		f.restarts++
		stats.restarts.Inc()
		stats.work.Add(work)
		stats.queueMicros.Add(queued)
		now := e.clk.Now()
		release := now + clock.FromDuration(retry.Default.Delay(f.restarts, uint64(task.ID)))
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
			Payload:  f,
			Fn:       runFiring,
		}
		if p.rule.Deadline > 0 {
			retry.Deadline = release + p.rule.Deadline
		}
		if e.Sched.Submit(retry) == nil {
			e.Sched.NoteRetried()
			e.tracer.EmitSpan(now, obs.KindTaskRetry, p.rule.Action, int64(f.restarts), task.Trace, task.ID)
			return nil
		}
		// Scheduler is shutting down: fall through to the permanent path so
		// the firing's resources are released.
	}

	finished := e.clk.Now()
	stats.run.Inc()
	stats.work.Add(work)
	stats.queueMicros.Add(queued)
	stats.latency.Record(finished - f.createdAt)
	if err != nil {
		stats.errs.Inc()
		// The recompute never committed; drop the pending stamp rather than
		// record a bogus closing sample.
		stats.stale.Drop(f.staleTok)
		if p.br != nil && p.br.onFailure(finished) {
			e.tracer.Emit(finished, obs.KindRuleQuarantine, p.rule.Action, int64(f.restarts))
		}
	} else {
		stats.stale.Observe(f.staleTok, finished)
		// Close the chain with the staleness sample this recompute settles:
		// Arg is the age of the oldest update it made fresh. Deadline SLO
		// burn is judged on the same age.
		age := finished - f.createdAt
		e.tracer.EmitSpan(finished, obs.KindStaleSample, p.rule.Action, age, task.Trace, task.ID)
		if p.rule.Deadline > 0 && age > p.rule.Deadline {
			stats.prof.NoteSLOBreach()
		}
		if p.br != nil {
			p.br.onSuccess()
		}
	}
	e.tracer.EmitSpan(finished, obs.KindActionDone, p.rule.Action, finished-f.createdAt, task.Trace, task.ID)
	retireAll(f.ctx.bound)
	return err
}
