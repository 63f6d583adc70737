package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/cost"
	"github.com/stripdb/strip/internal/lock"
	"github.com/stripdb/strip/internal/obs"
	"github.com/stripdb/strip/internal/query"
	"github.com/stripdb/strip/internal/sched"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

// maxActionRestarts bounds transient-abort retries (deadlock victims,
// wait timeouts) of rule action tasks (paper §3: in a real-time system
// transactions may be restarted).
const maxActionRestarts = 5

// Retry backoff bounds: attempt n waits base<<(n-1), capped, with
// deterministic jitter (see retryBackoff).
const (
	retryBackoffBase clock.Micros = 2_000
	retryBackoffMax  clock.Micros = 128_000
)

// retryBackoff computes the capped exponential backoff for restart attempt
// (1-based), jittered into [d/2, d]. The jitter hashes the task id and
// attempt instead of drawing from a PRNG so virtual-clock runs stay
// replayable and concurrent retries still decorrelate.
func retryBackoff(attempt int, id int64) clock.Micros {
	d := retryBackoffBase << uint(attempt-1)
	if d <= 0 || d > retryBackoffMax {
		d = retryBackoffMax
	}
	h := uint64(id)*0x9E3779B97F4A7C15 + uint64(attempt)*0xBF58476D1CE4E5B9
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	half := uint64(d / 2)
	return clock.Micros(half + h%(half+1))
}

// ActionStats summarizes one user function's rule activity. N_r in the
// paper's figures is TasksRun; WorkMicros/TasksRun is the mean recompute
// transaction length excluding queueing (Figures 11 and 14). It is a view
// over registry-backed counters (see fnMetrics).
type ActionStats struct {
	Fired        int64   // rule firings with a true condition
	TasksCreated int64   // new tasks enqueued
	TasksMerged  int64   // firings absorbed into queued unique tasks
	RowsMerged   int64   // bound rows appended by merges
	TasksRun     int64   // tasks executed (N_r)
	TaskErrors   int64   // tasks that failed after retries
	Restarts     int64   // transient-abort restarts (deadlock, wait timeout)
	TasksShed    int64   // tasks dropped by overload shedding or shutdown
	Quarantined  int64   // firings dropped while the circuit breaker was open
	WorkMicros   float64 // charged virtual CPU across runs
	QueueMicros  int64   // total time between release and start
}

// fnMetrics holds one user function's registry instruments: rule-activity
// counters, the end-to-end action latency histogram (trigger commit →
// action commit), and the derived-data staleness tracker.
type fnMetrics struct {
	fired       *obs.Counter
	created     *obs.Counter
	merged      *obs.Counter
	rowsMerged  *obs.Counter
	run         *obs.Counter
	errs        *obs.Counter
	restarts    *obs.Counter
	shed        *obs.Counter
	quarantined *obs.Counter
	queueMicros *obs.Counter
	work        *obs.FloatCounter
	latency     *obs.Histogram
	mergeRows   *obs.Histogram
	stale       *obs.Staleness
	// prof is the function's cost profile: evaluate-query wall time,
	// executor row counters, lock wait, and deadline-SLO burn.
	prof *obs.Profile
}

func newFnMetrics(reg *obs.Registry, fn string) *fnMetrics {
	return &fnMetrics{
		fired:       reg.Counter(obs.ForFunc(obs.MActionFired, fn)),
		created:     reg.Counter(obs.ForFunc(obs.MActionTasksCreated, fn)),
		merged:      reg.Counter(obs.ForFunc(obs.MActionTasksMerged, fn)),
		rowsMerged:  reg.Counter(obs.ForFunc(obs.MActionRowsMerged, fn)),
		run:         reg.Counter(obs.ForFunc(obs.MActionTasksRun, fn)),
		errs:        reg.Counter(obs.ForFunc(obs.MActionTaskErrors, fn)),
		restarts:    reg.Counter(obs.ForFunc(obs.MActionRestarts, fn)),
		shed:        reg.Counter(obs.ForFunc(obs.MActionShed, fn)),
		quarantined: reg.Counter(obs.ForFunc(obs.MActionQuarantined, fn)),
		queueMicros: reg.Counter(obs.ForFunc(obs.MActionQueueMicros, fn)),
		work:        reg.FloatCounter(obs.ForFunc(obs.MActionWorkMicros, fn)),
		latency:     reg.Histogram(obs.ForFunc(obs.MActionLatencyMicros, fn)),
		mergeRows:   reg.Histogram(obs.ForFunc(obs.MActionMergeRows, fn)),
		stale:       reg.Staleness(fn),
		prof:        reg.Profile(fn),
	}
}

// view renders the counters as the public ActionStats snapshot.
func (m *fnMetrics) view() ActionStats {
	return ActionStats{
		Fired:        m.fired.Load(),
		TasksCreated: m.created.Load(),
		TasksMerged:  m.merged.Load(),
		RowsMerged:   m.rowsMerged.Load(),
		TasksRun:     m.run.Load(),
		TaskErrors:   m.errs.Load(),
		Restarts:     m.restarts.Load(),
		TasksShed:    m.shed.Load(),
		Quarantined:  m.quarantined.Load(),
		WorkMicros:   m.work.Load(),
		QueueMicros:  m.queueMicros.Load(),
	}
}

// reset zeroes the function's instruments (between experiment runs).
func (m *fnMetrics) reset() {
	m.fired.Store(0)
	m.created.Store(0)
	m.merged.Store(0)
	m.rowsMerged.Store(0)
	m.run.Store(0)
	m.errs.Store(0)
	m.restarts.Store(0)
	m.shed.Store(0)
	m.quarantined.Store(0)
	m.queueMicros.Store(0)
	m.work.Store(0)
	m.latency.Reset()
	m.mergeRows.Reset()
	m.stale.Reset()
}

// Engine is the rule system: it owns rule definitions, user functions,
// uniqueness hash tables, and rule processing at commit.
type Engine struct {
	Txns  *txn.Manager
	Sched *sched.Scheduler
	// SQL runs the statement text that actions hand to
	// ActionContext.Exec / QuerySQL. The facade sets it to the engine's
	// statement cache before any rule exists; an engine built without a
	// SQL front end leaves it nil and its actions use the programmatic
	// forms.
	SQL Statements

	clk   clock.Clock
	meter *cost.Meter
	model cost.Model
	// virtualClk marks a virtual-clock engine: rule-evaluation cost is then
	// accounted from the cost meter (model-charged virtual CPU) instead of
	// wall time, which does not advance during evaluation.
	virtualClk bool
	// obs is the engine's metrics registry (shared with the transaction
	// manager); tracer is its event trace.
	obs    *obs.Registry
	tracer *obs.Tracer

	mu      sync.RWMutex
	rules   map[string]*Rule
	byTable map[string][]*Rule
	funcs   map[string]ActionFunc
	// sets holds one uniqueness hash table per user function, created when
	// the first rule executing that function is defined (paper §6.3).
	sets map[string]*uniqueSet
	// bindSig records each function's bound-table definitions; rules
	// executing the same function must define them identically (paper §2).
	// A function's entry is written once, by its first firing, and never
	// changed, so later firings check against it outside the lock.
	bindSig map[string]map[string]*catalog.Schema
	// transProtos caches, per table, the four empty transition tables
	// (schema + column map) every commit on that table clones from.
	transProtos map[string]*transProtos

	// stats caches per-function instrument handles (guarded by mu).
	stats map[string]*fnMetrics

	// breakers holds one circuit breaker per user function (created with
	// the function's first rule). breakerThreshold < 0 disables creation.
	breakers         map[string]*breaker
	breakerThreshold int
	breakerCooldown  clock.Micros

	// periodic holds recurring recomputation tasks (paper §3).
	periodic map[string]*periodicTask
}

// Statements runs SQL text inside a caller's transaction. core cannot
// import the SQL front end (sqlparse builds core.Rule), so it names what
// actions need from it: both methods go text → statement cache → prepared
// statement → execute, so an action's repeated statement is parsed and
// planned once however its literals change.
type Statements interface {
	// ExecIn runs one INSERT, UPDATE or DELETE and reports the rows affected.
	ExecIn(tx *txn.Txn, sql string) (int, error)
	// QueryIn runs one SELECT, resolving its tables through res.
	QueryIn(tx *txn.Txn, res query.Resolver, sql string) (*storage.TempTable, error)
}

// NewEngine builds a rule engine over the transaction manager and scheduler
// and registers itself as the commit hook.
func NewEngine(txns *txn.Manager, scheduler *sched.Scheduler) *Engine {
	e := &Engine{
		Txns:        txns,
		Sched:       scheduler,
		clk:         txns.Clock,
		meter:       txns.Meter,
		model:       txns.Model,
		obs:         txns.Obs,
		tracer:      txns.Obs.Tracer(),
		rules:       make(map[string]*Rule),
		byTable:     make(map[string][]*Rule),
		funcs:       make(map[string]ActionFunc),
		sets:        make(map[string]*uniqueSet),
		bindSig:     make(map[string]map[string]*catalog.Schema),
		transProtos: make(map[string]*transProtos),
		stats:       make(map[string]*fnMetrics),
		breakers:    make(map[string]*breaker),
	}
	_, e.virtualClk = txns.Clock.(*clock.Virtual)
	txns.SetCommitHook(e.ProcessCommit)
	return e
}

// RegisterFunc installs a user function under a name. Rule actions are
// executed by application-provided functions treated as black boxes
// (paper §2); in this implementation they are Go closures.
func (e *Engine) RegisterFunc(name string, fn ActionFunc) error {
	if name == "" || fn == nil {
		return fmt.Errorf("core: invalid function registration")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.funcs[name]; dup {
		return fmt.Errorf("core: function %q already registered", name)
	}
	e.funcs[name] = fn
	return nil
}

// CreateRule validates and installs a rule. The uniqueness hash table for
// the rule's function is created on first use.
func (e *Engine) CreateRule(r *Rule) error {
	if err := r.validate(); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.rules[r.Name]; dup {
		return fmt.Errorf("core: rule %q already exists", r.Name)
	}
	if _, ok := e.funcs[r.Action]; !ok {
		return fmt.Errorf("core: rule %s executes unregistered function %q", r.Name, r.Action)
	}
	if _, ok := e.Txns.Catalog.Lookup(r.Table); !ok {
		return fmt.Errorf("core: rule %s on unknown table %q", r.Name, r.Table)
	}
	e.rules[r.Name] = r
	e.byTable[r.Table] = append(e.byTable[r.Table], r)
	if r.Unique {
		if _, ok := e.sets[r.Action]; !ok {
			e.sets[r.Action] = newUniqueSet()
		}
	}
	if _, ok := e.stats[r.Action]; !ok {
		e.stats[r.Action] = newFnMetrics(e.obs, r.Action)
	}
	// The tightest deadline among the function's rules is the SLO its
	// staleness burns against.
	if r.Deadline > 0 {
		prof := e.stats[r.Action].prof
		if cur := prof.Deadline(); cur == 0 || int64(r.Deadline) < cur {
			prof.SetDeadline(int64(r.Deadline))
		}
	}
	if e.breakerThreshold >= 0 {
		if _, ok := e.breakers[r.Action]; !ok {
			e.breakers[r.Action] = newBreaker(e.breakerThreshold, e.breakerCooldown)
		}
	}
	return nil
}

// SetBreakerPolicy configures circuit breakers for rules created after the
// call: threshold consecutive permanent failures open a function's breaker
// for cooldown engine-time. threshold == 0 and cooldown <= 0 select the
// defaults; threshold < 0 disables breakers entirely.
func (e *Engine) SetBreakerPolicy(threshold int, cooldown clock.Micros) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.breakerThreshold = threshold
	e.breakerCooldown = cooldown
}

// RuleHealth reports each user function's circuit-breaker state, sorted by
// function name. Functions whose rules were created with breakers disabled
// are absent.
func (e *Engine) RuleHealth() []RuleHealth {
	e.mu.RLock()
	out := make([]RuleHealth, 0, len(e.breakers))
	for fn, br := range e.breakers {
		out = append(out, br.health(fn))
	}
	e.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Function < out[j].Function })
	return out
}

// MaintenanceMode describes how one rule maintains its derived data.
type MaintenanceMode struct {
	Rule     string `json:"rule"`
	Function string `json:"function"`
	Mode     string `json:"mode"`
}

// RuleModes reports the maintenance mode of every rule that declares one
// (Rule.Maintenance non-empty — viewgen-generated maintenance rules),
// sorted by rule name. Rules that are not view maintainers are absent.
func (e *Engine) RuleModes() []MaintenanceMode {
	e.mu.RLock()
	out := make([]MaintenanceMode, 0, len(e.rules))
	for name, r := range e.rules {
		if r.Maintenance != "" {
			out = append(out, MaintenanceMode{Rule: name, Function: r.Action, Mode: r.Maintenance})
		}
	}
	e.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Rule < out[j].Rule })
	return out
}

// DropRule removes a rule.
func (e *Engine) DropRule(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	r, ok := e.rules[name]
	if !ok {
		return fmt.Errorf("core: rule %q does not exist", name)
	}
	delete(e.rules, name)
	list := e.byTable[r.Table]
	for i, x := range list {
		if x == r {
			e.byTable[r.Table] = append(list[:i:i], list[i+1:]...)
			break
		}
	}
	return nil
}

// Rules returns the installed rules for a table (nil-safe copy).
func (e *Engine) Rules(table string) []*Rule {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]*Rule(nil), e.byTable[table]...)
}

// Stats returns a snapshot of a function's action statistics.
func (e *Engine) Stats(function string) ActionStats {
	e.mu.RLock()
	m, ok := e.stats[function]
	e.mu.RUnlock()
	if !ok {
		return ActionStats{}
	}
	return m.view()
}

// ResetStats zeroes all action statistics (between experiment runs).
func (e *Engine) ResetStats() {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, m := range e.stats {
		m.reset()
	}
}

// ProcessCommit is the commit hook: event detection over the write log,
// transition-table construction, condition evaluation, binding, and task
// creation/merging (paper §6.3).
func (e *Engine) ProcessCommit(tx *txn.Txn) error {
	log := tx.Log()
	if len(log) == 0 {
		return nil
	}
	// Group the log by table, preserving execution order.
	byTable := map[string][]txn.LogRec{}
	var tableOrder []string
	for _, rec := range log {
		if _, seen := byTable[rec.Table]; !seen {
			tableOrder = append(tableOrder, rec.Table)
		}
		byTable[rec.Table] = append(byTable[rec.Table], rec)
	}

	for _, table := range tableOrder {
		recs := byTable[table]
		base := logRecTable(recs[0]).Schema()
		e.mu.RLock()
		rules := append([]*Rule(nil), e.byTable[table]...)
		protos := e.transProtos[table]
		e.mu.RUnlock()
		if len(rules) == 0 {
			continue
		}
		if protos == nil || protos.base != base {
			var err error
			if protos, err = e.cacheTransProtos(table, base); err != nil {
				return err
			}
		}
		for range recs {
			e.meter.Charge(e.model.ScanRow) // one pass over the table's log
		}
		trans := &transitions{protos: protos, recs: recs}
		for _, rule := range rules {
			e.meter.Charge(e.model.EventCheck)
			if !triggered(rule, recs) {
				continue
			}
			if err := e.evaluateRule(tx, rule, trans); err != nil {
				trans.retire()
				return err
			}
		}
		trans.retire()
	}
	return nil
}

// logRecTable returns the table a log record's images belong to.
func logRecTable(rec txn.LogRec) *storage.Table {
	if rec.New != nil {
		return rec.New.Table()
	}
	return rec.Old.Table()
}

// Transition tables, in transProtos / transitions slot order.
var transNames = [4]string{transInserted, transDeleted, transNew, transOld}

// transProtos holds one table's four empty transition tables: the base
// schema renamed and extended by execute_order, with the column map that
// resolves base columns through the changed record. Built once per table
// (again if the table is re-created: base is then a different schema).
type transProtos struct {
	base   *catalog.Schema
	tables [4]*storage.TempTable
}

func newTransProtos(base *catalog.Schema) (*transProtos, error) {
	srcMap := make([]storage.ColSource, base.NumCols()+1)
	for i := 0; i < base.NumCols(); i++ {
		srcMap[i] = storage.FromRecord(0, i)
	}
	srcMap[base.NumCols()] = storage.Materialized(0)
	p := &transProtos{base: base}
	for i, name := range transNames {
		schema, err := base.Rename(name).WithColumns(catalog.Column{Name: ExecuteOrderCol, Kind: types.KindInt})
		if err != nil {
			return nil, err
		}
		if p.tables[i], err = storage.NewTempTable(schema, srcMap, 1); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// cacheTransProtos builds and remembers table's transition prototypes.
func (e *Engine) cacheTransProtos(table string, base *catalog.Schema) (*transProtos, error) {
	p, err := newTransProtos(base)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.transProtos[table] = p
	e.mu.Unlock()
	return p, nil
}

// transitions is one table's share of a committing transaction's log, seen
// as the inserted/deleted/new/old tables, each with the execute_order
// column (paper §2: no net-effect reduction — every change appears). A
// table is materialised the first time a rule names it; a commit whose
// rules read only `new` never builds the other three.
type transitions struct {
	protos *transProtos
	recs   []txn.LogRec
	built  [4]*storage.TempTable
}

func (tr *transitions) retire() {
	for _, tt := range tr.built {
		if tt != nil {
			tt.Retire()
		}
	}
}

// lookup returns the named transition table; ok is false when name is not
// one of the four.
func (tr *transitions) lookup(name string) (tt *storage.TempTable, ok bool, err error) {
	for i, n := range transNames {
		if n != name {
			continue
		}
		if tr.built[i] == nil {
			tr.built[i], err = tr.build(i)
		}
		return tr.built[i], true, err
	}
	return nil, false, nil
}

// build materialises transition table slot from the log records.
func (tr *transitions) build(slot int) (*storage.TempTable, error) {
	// inserted and deleted take the images of inserts and deletes; new and
	// old take the two images of each update, which share its execute_order
	// value so rules can pair them (paper §3: new.execute_order =
	// old.execute_order).
	op := [4]txn.Op{txn.OpInsert, txn.OpDelete, txn.OpUpdate, txn.OpUpdate}[slot]
	newImage := transNames[slot] == transInserted || transNames[slot] == transNew
	tt := tr.protos.tables[slot].Clone()
	for _, rec := range tr.recs {
		if rec.Op != op {
			continue
		}
		img := rec.Old
		if newImage {
			img = rec.New
		}
		if err := tt.AppendRow([]*storage.Record{img}, []types.Value{types.Int(rec.Seq)}); err != nil {
			tt.Retire()
			return nil, err
		}
	}
	return tt, nil
}

// triggered evaluates the rule's transition predicate against the log.
func triggered(rule *Rule, recs []txn.LogRec) bool {
	for _, rec := range recs {
		var kind EventKind
		var changed map[string]bool
		switch rec.Op {
		case txn.OpInsert:
			kind = Inserted
		case txn.OpDelete:
			kind = Deleted
		case txn.OpUpdate:
			kind = Updated
			changed = changedColumns(rec)
		}
		for _, ev := range rule.Events {
			if ev.matches(kind, changed) {
				return true
			}
		}
	}
	return false
}

func changedColumns(rec txn.LogRec) map[string]bool {
	out := map[string]bool{}
	schema := rec.New.Table().Schema()
	for i := 0; i < schema.NumCols(); i++ {
		if !rec.Old.Value(i).Equal(rec.New.Value(i)) {
			out[schema.Col(i).Name] = true
		}
	}
	return out
}

// transResolver resolves the rule's transition tables first, then the
// database.
type transResolver struct{ trans *transitions }

func (r transResolver) Resolve(tx *txn.Txn, name string) (*storage.Table, *storage.TempTable, error) {
	if tt, ok, err := r.trans.lookup(name); ok {
		return nil, tt, err
	}
	return query.TxnResolver{}.Resolve(tx, name)
}

// evaluateRule runs the rule's condition inside the triggering transaction,
// builds bound tables, and fires the action.
func (e *Engine) evaluateRule(tx *txn.Txn, rule *Rule, trans *transitions) error {
	res := transResolver{trans: trans}
	bound := map[string]*storage.TempTable{}
	retireAll := func() {
		for _, tt := range bound {
			tt.Retire()
		}
	}

	// Profile the evaluation: wall time and executor row counters charge to
	// the rule's function. The triggering transaction temporarily carries a
	// private TxnProfile so the query layer's per-row accounting flows here
	// without touching user-transaction hot paths; the previous profile (set
	// when a cascading rule evaluates inside an action transaction) is
	// restored on the way out.
	var queries int64
	fn := e.fnRefs(rule.Action)
	if stats := fn.stats; stats != nil {
		start := e.clk.Now()
		startCost := e.meter.Micros()
		prev := tx.Profile()
		tp := &txn.TxnProfile{}
		tx.SetProfile(tp)
		defer func() {
			tx.SetProfile(prev)
			micros := int64(e.clk.Now() - start)
			if e.virtualClk {
				// The virtual clock only advances between driver steps, so
				// wall deltas are zero; charge the cost model's virtual CPU
				// instead (evaluation is single-threaded in virtual mode, so
				// the meter delta is this evaluation's).
				micros = int64(e.meter.Micros() - startCost)
			}
			stats.prof.AddEval(queries, micros)
			stats.prof.AddRows(tp.RowsScanned, tp.RowsMatched, tp.RowsWritten)
			stats.prof.AddLockWait(tp.LockWaitMicros)
		}()
	}

	condTrue := true
	for _, q := range rule.Condition {
		out, err := q.Run(tx, res)
		queries++
		if err != nil {
			retireAll()
			return fmt.Errorf("core: rule %s condition: %w", rule.Name, err)
		}
		if out.Len() == 0 {
			condTrue = false
			out.Retire()
			break
		}
		if q.Bind != "" {
			bound[q.Bind] = out
		} else {
			out.Retire()
		}
	}
	if !condTrue {
		retireAll()
		return nil
	}
	for _, q := range rule.Evaluate {
		out, err := q.Run(tx, res)
		queries++
		if err != nil {
			retireAll()
			return fmt.Errorf("core: rule %s evaluate: %w", rule.Name, err)
		}
		if q.Bind != "" {
			bound[q.Bind] = out
		} else {
			out.Retire()
		}
	}

	// Copy requested transition tables into the bound set — copies, not
	// the originals: the transitions retire when the commit hook returns,
	// while bound tables must live until the action runs, and unique
	// batching appends later firings' transition rows into the queued copy
	// (the merged rows are the batch's delta).
	for _, name := range rule.BindTransitions {
		src, ok, err := trans.lookup(name)
		if err == nil && !ok {
			err = fmt.Errorf("no such transition table")
		}
		if err != nil {
			retireAll()
			return fmt.Errorf("core: rule %s: bind transition %q: %w", rule.Name, name, err)
		}
		cp := src.Clone()
		if err := cp.AppendFrom(src, nil); err != nil {
			cp.Retire()
			retireAll()
			return fmt.Errorf("core: rule %s: bind transition %q: %w", rule.Name, name, err)
		}
		bound[name] = cp
	}

	// Bind-time commit_time instantiation. The hook runs just before the
	// commit point inside the committing transaction, so "now" is the
	// transaction's commit time to within the commit path itself.
	if rule.BindCommitTime {
		now := e.clk.Now()
		stamped := map[string]*storage.TempTable{}
		for name, tt := range bound {
			ext, err := withCommitTime(tt, now)
			tt.Retire()
			if err != nil {
				for _, s := range stamped {
					s.Retire()
				}
				return err
			}
			stamped[name] = ext
		}
		bound = stamped
	}

	for range bound {
		// bind-as accounting: rows were charged as OutputRow by the query;
		// charge BindRow for wiring each bound table into the task.
		e.meter.Charge(e.model.BindRow)
	}

	if err := e.checkBindSignature(rule, fn.sig, bound); err != nil {
		retireAll()
		return err
	}

	return e.fire(tx, rule, fn, bound)
}

// fnRefs is what a firing needs to know about its rule's function, read
// under one shared hold of the engine lock.
type fnRefs struct {
	fn    ActionFunc
	set   *uniqueSet
	stats *fnMetrics
	br    *breaker
	sig   map[string]*catalog.Schema // nil before the function's first firing
}

func (e *Engine) fnRefs(action string) fnRefs {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return fnRefs{fn: e.funcs[action], set: e.sets[action], stats: e.stats[action],
		br: e.breakers[action], sig: e.bindSig[action]}
}

// withCommitTime copies tt into a table extended by the commit_time column.
func withCommitTime(tt *storage.TempTable, now clock.Micros) (*storage.TempTable, error) {
	schema, err := tt.Schema().WithColumns(catalog.Column{Name: CommitTimeCol, Kind: types.KindTime})
	if err != nil {
		return nil, err
	}
	n := tt.Schema().NumCols()
	srcMap := make([]storage.ColSource, n+1)
	nVals := 0
	for i := 0; i < n; i++ {
		cs := tt.Source(i)
		if cs.Ptr < 0 {
			cs.Off = nVals
			nVals++
		}
		srcMap[i] = cs
	}
	srcMap[n] = storage.Materialized(nVals)
	out, err := storage.NewTempTable(schema, srcMap, tt.NumPtrs())
	if err != nil {
		return nil, err
	}
	ts := types.Time(now)
	for i := 0; i < tt.Len(); i++ {
		ptrs := make([]*storage.Record, tt.NumPtrs())
		for p := range ptrs {
			ptrs[p] = tt.RowPtr(i, p)
		}
		vals := make([]types.Value, 0, nVals+1)
		for c := 0; c < n; c++ {
			if tt.Source(c).Ptr < 0 {
				vals = append(vals, tt.Value(i, c))
			}
		}
		vals = append(vals, ts)
		if err := out.AppendRow(ptrs, vals); err != nil {
			out.Retire()
			return nil, err
		}
	}
	return out, nil
}

// checkBindSignature enforces the paper's §2 requirement: all rules that
// execute the same user function must define their bound tables
// identically. The first firing fixes the signature (sig is nil until then)
// under the engine's exclusive lock; every later firing only compares
// against that immutable map and takes no lock.
func (e *Engine) checkBindSignature(rule *Rule, sig map[string]*catalog.Schema, bound map[string]*storage.TempTable) error {
	if sig == nil {
		e.mu.Lock()
		if sig = e.bindSig[rule.Action]; sig == nil {
			sig = make(map[string]*catalog.Schema, len(bound))
			for name, tt := range bound {
				sig[name] = tt.Schema()
			}
			e.bindSig[rule.Action] = sig
			e.mu.Unlock()
			return nil
		}
		e.mu.Unlock() // another committer fired first: check against its signature
	}
	if len(sig) != len(bound) {
		return fmt.Errorf("core: rule %s binds %d tables for function %s, expected %d",
			rule.Name, len(bound), rule.Action, len(sig))
	}
	for name, tt := range bound {
		want, ok := sig[name]
		if !ok {
			return fmt.Errorf("core: rule %s binds unexpected table %q for function %s",
				rule.Name, name, rule.Action)
		}
		if !want.Equal(tt.Schema()) {
			return fmt.Errorf("core: rule %s binds table %q with a different definition for function %s",
				rule.Name, name, rule.Action)
		}
	}
	return nil
}

// fire creates or merges action tasks for one rule firing. The triggering
// transaction's commit time (now, inside the commit hook) stamps the
// moment derived data went stale.
func (e *Engine) fire(tx *txn.Txn, rule *Rule, refs fnRefs, bound map[string]*storage.TempTable) error {
	fn, set, stats, br := refs.fn, refs.set, refs.stats, refs.br
	if fn == nil {
		for _, tt := range bound {
			tt.Retire()
		}
		return fmt.Errorf("core: function %q vanished", rule.Action)
	}
	stats.fired.Inc()

	stamp := e.clk.Now()
	delay := rule.Delay
	if rule.Unique {
		// Under overload the scheduler widens unique-transaction batching
		// windows so more firings merge instead of queueing new tasks.
		delay = e.Sched.WidenDelay(delay)
	}
	release := stamp + delay
	// The firing joins the triggering transaction's causal chain: Trace is
	// the chain root (the user commit, even through rule cascades), Parent
	// the transaction whose commit hook is running.
	e.tracer.EmitSpan(stamp, obs.KindRuleFire, rule.Name, tx.ID(), tx.Trace(), tx.ID())

	if !rule.Unique {
		e.submitTask(tx, rule, fn, stats, br, bound, types.Key{}, nil, release, stamp)
		return nil
	}

	if len(rule.UniqueOn) == 0 {
		e.enqueueUnique(tx, rule, fn, stats, br, set, types.Key{}, bound, release, stamp)
		return nil
	}

	parts, err := partitionByUnique(rule.UniqueOn, bound)
	if err != nil {
		for _, tt := range bound {
			tt.Retire()
		}
		return fmt.Errorf("core: rule %s: %w", rule.Name, err)
	}
	for _, part := range parts {
		// Rule-system pre-grouping of bound rows into per-key tables
		// (paper §5.2: slightly faster than grouping in user code).
		for _, tt := range part.bound {
			e.meter.Charge(float64(tt.Len()) * e.model.GroupRow)
		}
		e.enqueueUnique(tx, rule, fn, stats, br, set, part.key, part.bound, release, stamp)
	}
	// The originals were copied into the partitions.
	for _, tt := range bound {
		tt.Retire()
	}
	return nil
}

// enqueueUnique merges a firing into a queued unique task or creates one
// (paper §2, §6.3: the hash table maps unique column values to the TCB).
func (e *Engine) enqueueUnique(trig *txn.Txn, rule *Rule, fn ActionFunc, stats *fnMetrics, br *breaker, set *uniqueSet,
	key types.Key, bound map[string]*storage.TempTable, release clock.Micros, stamp clock.Micros) {

	e.meter.Charge(e.model.UniqueHashLookup)
	set.mu.Lock()
	pending, ok := set.pending[key]
	if ok {
		payload := pending.Payload.(*actionPayload)
		if trig != nil {
			// The merged firing's updates must also be visible to the
			// task's eventual read snapshot.
			payload.triggers = append(payload.triggers, trig.Done())
		}
		merged := 0
		err := payload.merge(bound)
		if err == nil {
			for _, tt := range bound {
				merged += tt.Len()
			}
		}
		set.mu.Unlock()
		for _, tt := range bound {
			tt.Retire()
		}
		if err != nil {
			// Defined-identically violations are caught earlier by the bind
			// signature check; reaching here means an internal mismatch.
			panic(fmt.Sprintf("core: merge into queued task failed: %v", err))
		}
		e.meter.Charge(float64(merged) * e.model.MergeRow)
		// The queued task's staleness stamp stays: it already marks the
		// oldest un-recomputed update for this key.
		stats.merged.Inc()
		stats.rowsMerged.Add(int64(merged))
		stats.mergeRows.Record(int64(merged))
		// The merge cross-links two chains: Trace is the merging commit's
		// chain, Parent the queued task (whose own chain stays rooted at its
		// first trigger). A span walk from either side finds the join.
		var mergeTrace int64
		if trig != nil {
			mergeTrace = trig.Trace()
		}
		e.tracer.EmitSpan(stamp, obs.KindRuleMerge, rule.Action, int64(merged), mergeTrace, pending.ID)
		return
	}
	// The breaker gates only new task creation: merging into an already
	// admitted task (including a half-open probe) costs nothing extra and
	// keeps that task's bound rows complete.
	if br != nil && !br.allow(stamp) {
		set.mu.Unlock()
		e.dropQuarantined(rule, stats, bound, stamp)
		return
	}
	task := e.newActionTask(trig, rule, fn, stats, br, bound, key, set, release, stamp)
	set.pending[key] = task
	set.mu.Unlock()
	stats.created.Inc()
	e.submit(task)
}

func (e *Engine) submitTask(trig *txn.Txn, rule *Rule, fn ActionFunc, stats *fnMetrics, br *breaker,
	bound map[string]*storage.TempTable, key types.Key, set *uniqueSet, release clock.Micros, stamp clock.Micros) {
	if br != nil && !br.allow(stamp) {
		e.dropQuarantined(rule, stats, bound, stamp)
		return
	}
	task := e.newActionTask(trig, rule, fn, stats, br, bound, key, set, release, stamp)
	stats.created.Inc()
	e.submit(task)
}

// dropQuarantined discards a firing rejected by an open circuit breaker:
// bound tables are retired and the drop is counted and traced. No staleness
// token exists yet, so nothing else to release.
func (e *Engine) dropQuarantined(rule *Rule, stats *fnMetrics, bound map[string]*storage.TempTable, stamp clock.Micros) {
	for _, tt := range bound {
		tt.Retire()
	}
	stats.quarantined.Inc()
	e.tracer.Emit(stamp, obs.KindRuleQuarantine, rule.Action, 0)
}

// submit hands a task to the scheduler; when the scheduler is shutting
// down the task is discarded through its normal shed path so bound tables,
// staleness tokens, and the uniqueness hash table entry are all released.
func (e *Engine) submit(task *sched.Task) {
	if err := e.Sched.Submit(task); err != nil {
		if task.OnStart != nil {
			task.OnStart(task)
		}
		if task.OnShed != nil {
			task.OnShed(task)
		}
	}
}

// uniqueSet is the per-function uniqueness hash table (paper §6.3). The
// paper guards it with spinlocks; we use a mutex.
type uniqueSet struct {
	mu      sync.Mutex
	pending map[types.Key]*sched.Task
}

func newUniqueSet() *uniqueSet {
	return &uniqueSet{pending: make(map[types.Key]*sched.Task)}
}

// partition is one unique-column combination and its bound-table subset.
type partition struct {
	key   types.Key
	bound map[string]*storage.TempTable
}

// partitionByUnique implements Appendix A: tables containing unique columns
// (T^u) are partitioned by the distinct combinations of unique-column
// values; tables without unique columns pass whole to every partition.
func partitionByUnique(uniqueOn []string, bound map[string]*storage.TempTable) ([]partition, error) {
	if len(uniqueOn) > types.MaxKeyWidth {
		return nil, fmt.Errorf("unique column width %d exceeds %d", len(uniqueOn), types.MaxKeyWidth)
	}
	// Locate each unique column: (table, column index).
	type colLoc struct {
		table string
		col   int
	}
	locs := make([]colLoc, len(uniqueOn))
	for i, name := range uniqueOn {
		found := false
		for tname, tt := range bound {
			if ci := tt.Schema().ColIndex(name); ci >= 0 {
				if found {
					return nil, fmt.Errorf("unique column %q appears in multiple bound tables", name)
				}
				locs[i] = colLoc{table: tname, col: ci}
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unique column %q not found in any bound table", name)
		}
	}
	uniqueTables := map[string]bool{}
	for _, l := range locs {
		uniqueTables[l.table] = true
	}

	// Per-row key part for each T^u table, then the set of distinct combos
	// = π_U of the product of T^u (columns from different tables combine
	// freely; see Appendix A).
	type rowKey struct {
		tbl  string
		keys []types.Key // per-row partial key over this table's unique cols
	}
	partialFor := func(tname string) []int {
		var idxs []int
		for i, l := range locs {
			if l.table == tname {
				idxs = append(idxs, i)
			}
		}
		return idxs
	}

	partials := map[string]rowKey{}
	for tname := range uniqueTables {
		tt := bound[tname]
		idxs := partialFor(tname)
		keys := make([]types.Key, tt.Len())
		for r := 0; r < tt.Len(); r++ {
			vals := make([]types.Value, len(idxs))
			for j, li := range idxs {
				vals[j] = tt.Value(r, locs[li].col)
			}
			keys[r] = types.MakeKey(vals...)
		}
		partials[tname] = rowKey{tbl: tname, keys: keys}
	}

	// Enumerate distinct full keys: cross product of per-table distinct
	// partial keys, assembled in uniqueOn order.
	tableNames := make([]string, 0, len(uniqueTables))
	for t := range uniqueTables {
		tableNames = append(tableNames, t)
	}
	distinct := make([]map[types.Key]bool, len(tableNames))
	order := make([][]types.Key, len(tableNames))
	for i, t := range tableNames {
		distinct[i] = map[types.Key]bool{}
		for _, k := range partials[t].keys {
			if !distinct[i][k] {
				distinct[i][k] = true
				order[i] = append(order[i], k)
			}
		}
	}

	var parts []partition
	var build func(level int, chosen map[string]types.Key)
	build = func(level int, chosen map[string]types.Key) {
		if level == len(tableNames) {
			// Assemble the full key in uniqueOn order.
			full := make([]types.Value, len(uniqueOn))
			for i, l := range locs {
				part := chosen[l.table]
				// Position of column i within its table's partial key.
				pos := 0
				for _, li := range partialFor(l.table) {
					if li == i {
						break
					}
					pos++
				}
				full[i] = part.At(pos)
			}
			key := types.MakeKey(full...)
			pb := map[string]*storage.TempTable{}
			for tname, tt := range bound {
				clone := tt.Clone()
				if uniqueTables[tname] {
					pk := partials[tname].keys
					want := chosen[tname]
					if err := clone.AppendFrom(tt, func(r int) bool { return pk[r] == want }); err != nil {
						panic(err) // clone is append-compatible by construction
					}
				} else {
					if err := clone.AppendFrom(tt, nil); err != nil {
						panic(err)
					}
				}
				pb[tname] = clone
			}
			parts = append(parts, partition{key: key, bound: pb})
			return
		}
		for _, k := range order[level] {
			chosen[tableNames[level]] = k
			build(level+1, chosen)
		}
	}
	build(0, map[string]types.Key{})
	return parts, nil
}

// IsDeadlock reports whether err is a lock-manager deadlock abort,
// triggering an action-task restart.
func IsDeadlock(err error) bool { return errors.Is(err, lock.ErrDeadlock) }

// IsRetryable reports whether err is a transient concurrency abort —
// deadlock victim or lock-wait timeout — that an action task may retry
// with backoff.
func IsRetryable(err error) bool {
	return errors.Is(err, lock.ErrDeadlock) || errors.Is(err, lock.ErrWaitTimeout)
}

// PendingUnique reports how many unique transactions are currently queued
// for a user function (the population of its uniqueness hash table), for
// monitoring and the CLI.
func (e *Engine) PendingUnique(function string) int {
	e.mu.RLock()
	set := e.sets[function]
	e.mu.RUnlock()
	if set == nil {
		return 0
	}
	set.mu.Lock()
	defer set.mu.Unlock()
	return len(set.pending)
}
