package core

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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
	// bindSig records each function's bound-table definitions, sorted by
	// table name; rules executing the same function must define them
	// identically (paper §2). A function's entry is written once, when its
	// first rule is created, and never changed.
	bindSig map[string][]*catalog.Schema
	// programs is what the commit hook reads: per table with at least one
	// rule, the rules compiled against the table's schema. The map and
	// everything it reaches are immutable; rule DDL (and a commit that finds
	// its table re-created) builds a new one under mu and publishes it here,
	// so a firing takes no lock.
	programs atomic.Pointer[map[string]*tablePrograms]

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
	// QueryIn runs one SELECT, resolving its tables through res, and hands
	// its rows to rows.
	QueryIn(tx *txn.Txn, res query.Resolver, sql string, rows query.RowSink) error
}

// NewEngine builds a rule engine over the transaction manager and scheduler
// and registers itself as the commit hook.
func NewEngine(txns *txn.Manager, scheduler *sched.Scheduler) *Engine {
	e := &Engine{
		Txns:     txns,
		Sched:    scheduler,
		clk:      txns.Clock,
		meter:    txns.Meter,
		model:    txns.Model,
		obs:      txns.Obs,
		tracer:   txns.Obs.Tracer(),
		rules:    make(map[string]*Rule),
		byTable:  make(map[string][]*Rule),
		funcs:    make(map[string]ActionFunc),
		sets:     make(map[string]*uniqueSet),
		bindSig:  make(map[string][]*catalog.Schema),
		stats:    make(map[string]*fnMetrics),
		breakers: make(map[string]*breaker),
	}
	e.programs.Store(&map[string]*tablePrograms{})
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

// CreateRule validates and installs a rule, compiling it — and, because
// programs are immutable, every other rule — into the program its firings
// execute. The uniqueness hash table for the rule's function is created on
// first use.
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
	base := e.tableSchema(r.Table)
	if base == nil {
		return fmt.Errorf("core: rule %s on unknown table %q", r.Name, r.Table)
	}
	// Compile before installing anything: a rule whose bound tables cannot
	// be derived, or differ from what its function's other rules bind, or
	// do not hold its unique columns, is refused here, not at its first
	// firing.
	if tp := e.compileTable((*e.programs.Load())[r.Table], []*Rule{r}, base); tp.progs[0].err != nil {
		return tp.progs[0].err
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
	e.publishLocked()
	return nil
}

// tableSchema returns the schema commits on the table will carry: the
// stored table's own (the very pointer its records report), else the
// catalog's, else nil.
func (e *Engine) tableSchema(table string) *catalog.Schema {
	if tbl, ok := e.Txns.Store.Get(table); ok {
		return tbl.Schema()
	}
	s, _ := e.Txns.Catalog.Lookup(table)
	return s
}

// publishLocked recompiles every rule and publishes the result. Rule DDL
// is rare and a compile costs microseconds, so nothing is patched: a new
// rule, a dropped one, and a function's newly created uniqueness table or
// breaker all reach every program that needs them the same way.
func (e *Engine) publishLocked() {
	prev := *e.programs.Load()
	next := make(map[string]*tablePrograms, len(e.byTable))
	for table, rules := range e.byTable {
		if len(rules) > 0 {
			next[table] = e.compileTable(prev[table], rules, e.tableSchema(table))
		}
	}
	e.programs.Store(&next)
}

// retarget recompiles one table's rules against base — the schema a
// committing transaction's records carry, which the published programs do
// not describe: the table was dropped and created again.
func (e *Engine) retarget(table string, base *catalog.Schema) *tablePrograms {
	e.mu.Lock()
	defer e.mu.Unlock()
	cur := *e.programs.Load()
	tp := cur[table]
	if tp == nil || tp.base == base {
		return tp // dropped, or retargeted by another committer, meanwhile
	}
	next := maps.Clone(cur)
	next[table] = e.compileTable(tp, e.byTable[table], base)
	e.programs.Store(&next)
	return next[table]
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
	e.publishLocked()
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
// creation/merging (paper §6.3), all of it driven by the programs the
// tables' rules were compiled into.
func (e *Engine) ProcessCommit(tx *txn.Txn) error {
	log := tx.Log()
	programs := *e.programs.Load()
	if len(log) == 0 || len(programs) == 0 {
		return nil
	}
	// Nearly every transaction writes one table: its log is that table's
	// share as it stands. Only a log that mixes tables is regrouped, in
	// order of first appearance and execution order within a table.
	table, mixed, ruled := log[0].Table, false, programs[log[0].Table] != nil
	for i := 1; i < len(log); i++ {
		if t := log[i].Table; t != table {
			table, mixed = t, true
			ruled = ruled || programs[t] != nil
		}
	}
	if !ruled {
		return nil
	}
	if !mixed {
		return e.processTable(tx, programs[table], log)
	}
	var order []string
	byTable := map[string][]txn.LogRec{}
	for _, rec := range log {
		if programs[rec.Table] == nil {
			continue
		}
		if _, seen := byTable[rec.Table]; !seen {
			order = append(order, rec.Table)
		}
		byTable[rec.Table] = append(byTable[rec.Table], rec)
	}
	for _, table := range order {
		if err := e.processTable(tx, programs[table], byTable[table]); err != nil {
			return err
		}
	}
	return nil
}

// processTable runs one table's programs over its share of the log.
func (e *Engine) processTable(tx *txn.Txn, tp *tablePrograms, recs []txn.LogRec) error {
	if base := logRecTable(recs[0]).Schema(); tp.base != base {
		if tp = e.retarget(recs[0].Table, base); tp == nil {
			return nil
		}
	}
	for range recs {
		e.meter.Charge(e.model.ScanRow) // one pass over the table's log
	}
	var trans *transitions
	for _, p := range tp.progs {
		e.meter.Charge(e.model.EventCheck)
		if !p.triggered(recs) {
			continue
		}
		if p.err != nil {
			trans.retire()
			return p.err
		}
		if trans == nil {
			trans = &transitions{protos: tp.protos, recs: recs}
		}
		if err := e.evaluate(tx, p, trans); err != nil {
			trans.retire()
			return err
		}
	}
	trans.retire()
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
// schema. The prototypes are retired at birth: a retired table reads as
// empty, refuses appends and ignores further Retire calls, which is what a
// table shared by every commit must do — so a firing binds the prototype
// itself for a transition table it has no rows for.
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
		p.tables[i].Retire()
	}
	return p, nil
}

// transitions is one table's share of a committing transaction's log, seen
// as the inserted/deleted/new/old tables, each with the execute_order
// column (paper §2: no net-effect reduction — every change appears). A
// table is materialised the first time a query names it; a commit whose
// rules read only `new` never builds the other three. It doubles as the
// resolver the rules' queries run under, and carries the profile their
// row counts land in, so a triggered commit allocates it once.
type transitions struct {
	protos *transProtos
	recs   []txn.LogRec
	built  [4]*storage.TempTable
	prof   txn.TxnProfile
}

func (tr *transitions) retire() {
	if tr == nil {
		return
	}
	for _, tt := range tr.built {
		if tt != nil {
			tt.Retire()
		}
	}
}

// Resolve implements query.Resolver: the transition tables first, then
// the database.
func (tr *transitions) Resolve(tx *txn.Txn, name string) (*storage.Table, *storage.TempTable, error) {
	slot := slices.Index(transNames[:], name)
	if slot < 0 {
		return query.TxnResolver{}.Resolve(tx, name)
	}
	if tr.built[slot] == nil {
		var err error
		if tr.built[slot], err = tr.build(slot); err != nil {
			return nil, nil, err
		}
	}
	return nil, tr.built[slot], nil
}

// build materialises transition table slot from the log records; with no
// record of its kind, it is the prototype.
func (tr *transitions) build(slot int) (*storage.TempTable, error) {
	// inserted and deleted take the images of inserts and deletes; new and
	// old take the two images of each update, which share its execute_order
	// value so rules can pair them (paper §3: new.execute_order =
	// old.execute_order).
	op := [4]txn.Op{txn.OpInsert, txn.OpDelete, txn.OpUpdate, txn.OpUpdate}[slot]
	newImage := transNames[slot] == transInserted || transNames[slot] == transNew
	n := 0
	for i := range tr.recs {
		if tr.recs[i].Op == op {
			n++
		}
	}
	if n == 0 {
		return tr.protos.tables[slot], nil
	}
	tt := tr.protos.tables[slot].Clone()
	tt.Grow(n)
	var ptr [1]*storage.Record
	var val [1]types.Value
	for i := range tr.recs {
		rec := &tr.recs[i]
		if rec.Op != op {
			continue
		}
		ptr[0] = rec.Old
		if newImage {
			ptr[0] = rec.New
		}
		val[0] = types.Int(rec.Seq)
		if err := tt.AppendRow(ptr[:], val[:]); err != nil {
			tt.Retire()
			return nil, err
		}
	}
	return tt, nil
}

// bind returns a transition table for a firing to own: the one built for
// the queries copied, or — when no query read it — built for the firing.
func (tr *transitions) bind(slot int) (*storage.TempTable, error) {
	if tt := tr.built[slot]; tt != nil {
		if tt.Len() == 0 {
			return tt, nil
		}
		return tt.Copy(), nil
	}
	return tr.build(slot)
}

// inlineBound is how many bound tables a firing carries without a slice
// of its own.
const inlineBound = 4

// evaluate runs a triggered rule inside the triggering transaction: its
// condition, its bound tables, and the firing.
func (e *Engine) evaluate(tx *txn.Txn, p *program, trans *transitions) error {
	// Profile the evaluation: wall time and executor row counters charge to
	// the rule's function. The triggering transaction temporarily carries a
	// private TxnProfile so the query layer's per-row accounting flows here
	// without touching user-transaction hot paths; the previous profile (set
	// when a cascading rule evaluates inside an action transaction) is
	// restored on the way out.
	start := e.clk.Now()
	startCost := e.meter.Micros()
	prev := tx.Profile()
	trans.prof = txn.TxnProfile{}
	tx.SetProfile(&trans.prof)

	var buf [inlineBound]*storage.TempTable
	bound := buf[:0]
	if len(p.sig) > len(buf) {
		bound = make([]*storage.TempTable, 0, len(p.sig))
	}
	bound = bound[:len(p.sig)]
	fire, queries, err := e.bindTables(tx, p, trans, bound)
	if fire {
		e.fire(tx, p, bound)
	} else {
		retireAll(bound)
	}

	tx.SetProfile(prev)
	micros := int64(e.clk.Now() - start)
	if e.virtualClk {
		// The virtual clock only advances between driver steps, so wall
		// deltas are zero; charge the cost model's virtual CPU instead
		// (evaluation is single-threaded in virtual mode, so the meter
		// delta is this evaluation's).
		micros = int64(e.meter.Micros() - startCost)
	}
	p.stats.prof.AddEval(queries, micros)
	p.stats.prof.AddRows(trans.prof.RowsScanned, trans.prof.RowsMatched, trans.prof.RowsWritten)
	p.stats.prof.AddLockWait(trans.prof.LockWaitMicros)
	return err
}

func retireAll(tables []*storage.TempTable) {
	for _, tt := range tables {
		if tt != nil {
			tt.Retire()
		}
	}
}

// bindTables evaluates the condition and fills bound, slot by slot. fire is
// false when the condition is false or on error; bound may then be partly
// filled.
func (e *Engine) bindTables(tx *txn.Txn, p *program, trans *transitions, bound []*storage.TempTable) (fire bool, queries int64, err error) {
	rule := p.rule
	for i, q := range rule.Condition {
		out, err := q.Run(tx, trans)
		queries++
		if err != nil {
			return false, queries, fmt.Errorf("core: rule %s condition: %w", rule.Name, err)
		}
		if slot := p.condSlot[i]; slot >= 0 && out.Len() > 0 {
			bound[slot] = out
			continue
		}
		empty := out.Len() == 0
		out.Retire()
		if empty {
			return false, queries, nil
		}
	}
	for i, q := range rule.Evaluate {
		out, err := q.Run(tx, trans)
		queries++
		if err != nil {
			return false, queries, fmt.Errorf("core: rule %s evaluate: %w", rule.Name, err)
		}
		if slot := p.evalSlot[i]; slot >= 0 {
			bound[slot] = out
		} else {
			out.Retire()
		}
	}

	// Transition tables the action asked for are bound as tables of the
	// firing's own — the transitions retire when the commit hook returns,
	// while bound tables live until the action runs, and unique batching
	// appends later firings' transition rows to the queued ones (the merged
	// rows are the batch's delta).
	for _, tb := range p.transBind {
		if bound[tb.slot], err = trans.bind(tb.trans); err != nil {
			return false, queries, fmt.Errorf("core: rule %s: bind transition %q: %w", rule.Name, transNames[tb.trans], err)
		}
	}

	// Bind-time commit_time instantiation. The hook runs just before the
	// commit point inside the committing transaction, so "now" is the
	// transaction's commit time to within the commit path itself.
	if rule.BindCommitTime {
		now := e.clk.Now()
		for slot, tt := range bound {
			ext, err := withCommitTime(tt, p.sig[slot], now)
			if err != nil {
				return false, queries, err
			}
			tt.Retire()
			bound[slot] = ext
		}
	}

	for range bound {
		// bind-as accounting: rows were charged as OutputRow by the query;
		// charge BindRow for wiring each bound table into the task.
		e.meter.Charge(e.model.BindRow)
	}
	return true, queries, nil
}

// withCommitTime copies tt into a table of the given schema: tt's extended
// by the commit_time column.
func withCommitTime(tt *storage.TempTable, schema *catalog.Schema, now clock.Micros) (*storage.TempTable, error) {
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
	out.Grow(tt.Len())
	ptrs := make([]*storage.Record, tt.NumPtrs())
	vals := make([]types.Value, nVals+1)
	vals[nVals] = types.Time(now)
	for i := 0; i < tt.Len(); i++ {
		for p := range ptrs {
			ptrs[p] = tt.RowPtr(i, p)
		}
		v := 0
		for c := 0; c < n; c++ {
			if tt.Source(c).Ptr < 0 {
				vals[v] = tt.Value(i, c)
				v++
			}
		}
		if err := out.AppendRow(ptrs, vals); err != nil {
			out.Retire()
			return nil, err
		}
	}
	return out, nil
}

// fire creates or merges action tasks for one rule firing; it takes over
// the bound tables. The triggering transaction's commit time (now, inside
// the commit hook) stamps the moment derived data went stale.
func (e *Engine) fire(tx *txn.Txn, p *program, bound []*storage.TempTable) {
	rule := p.rule
	p.stats.fired.Inc()

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

	switch {
	case !rule.Unique:
		if p.br != nil && !p.br.allow(stamp) {
			e.dropQuarantined(p, bound, stamp)
			return
		}
		f := e.newFiring(tx, p, bound, types.Key{}, release, stamp)
		p.stats.created.Inc()
		e.submit(&f.task)
	case len(p.unique) == 0:
		e.enqueueUnique(tx, p, types.Key{}, bound, release, stamp)
	default:
		var buf splitBuf
		s := buf.split(p, bound)
		for key, part, ok := s.next(); ok; key, part, ok = s.next() {
			// Rule-system pre-grouping of bound rows into per-key tables
			// (paper §5.2: slightly faster than grouping in user code).
			for _, tt := range part {
				e.meter.Charge(float64(tt.Len()) * e.model.GroupRow)
			}
			e.enqueueUnique(tx, p, key, part, release, stamp)
		}
	}
}

// enqueueUnique merges a firing into a queued unique task or creates one
// (paper §2, §6.3: the hash table maps unique column values to the TCB).
func (e *Engine) enqueueUnique(trig *txn.Txn, p *program, key types.Key, bound []*storage.TempTable, release, stamp clock.Micros) {
	stats, set := p.stats, p.set
	e.meter.Charge(e.model.UniqueHashLookup)
	set.mu.Lock()
	if pending, ok := set.pending[key]; ok {
		// The merged firing's updates must also be visible to the task's
		// eventual read snapshot.
		pending.triggers = append(pending.triggers, trig.Done())
		merged, err := pending.merge(bound)
		set.mu.Unlock()
		if err != nil {
			// Rules of one function define their bound tables identically
			// (checked when they are created); reaching here means an
			// internal mismatch.
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
		e.tracer.EmitSpan(stamp, obs.KindRuleMerge, p.rule.Action, int64(merged), trig.Trace(), pending.task.ID)
		return
	}
	// The breaker gates only new task creation: merging into an already
	// admitted task (including a half-open probe) costs nothing extra and
	// keeps that task's bound rows complete.
	if p.br != nil && !p.br.allow(stamp) {
		set.mu.Unlock()
		e.dropQuarantined(p, bound, stamp)
		return
	}
	f := e.newFiring(trig, p, bound, key, release, stamp)
	set.pending[key] = f
	set.mu.Unlock()
	stats.created.Inc()
	e.submit(&f.task)
}

// dropQuarantined discards a firing rejected by an open circuit breaker:
// bound tables are retired and the drop is counted and traced. No staleness
// token exists yet, so nothing else to release.
func (e *Engine) dropQuarantined(p *program, bound []*storage.TempTable, stamp clock.Micros) {
	retireAll(bound)
	p.stats.quarantined.Inc()
	e.tracer.Emit(stamp, obs.KindRuleQuarantine, p.rule.Action, 0)
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

// uniqueSet is the per-function uniqueness hash table (paper §6.3): unique
// column values to the queued firing. The paper guards it with spinlocks;
// we use a mutex.
type uniqueSet struct {
	mu      sync.Mutex
	pending map[types.Key]*firing
}

func newUniqueSet() *uniqueSet {
	return &uniqueSet{pending: make(map[types.Key]*firing)}
}

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
