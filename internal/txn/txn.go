// Package txn implements STRIP transactions.
//
// A transaction buffers no writes — changes apply to storage immediately
// under a two-level lock protocol (table-level intents covering exclusive
// record locks, escalating to full table locks past a threshold), with an
// undo log for rollback. The write log
// doubles as the rule system's event audit trail: it preserves every change
// in execution order (no net-effect reduction, paper §2), numbered by the
// execute_order sequence that transition tables expose.
//
// At commit, a registered hook (the rule system) runs inside the committing
// transaction: event checking, condition evaluation, and bound-table
// construction all happen before locks are released (paper §6.3).
package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/cost"
	"github.com/stripdb/strip/internal/lock"
	"github.com/stripdb/strip/internal/obs"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/types"
)

// Op is a write-log operation kind.
type Op uint8

// Write-log operation kinds.
const (
	OpInsert Op = iota
	OpDelete
	OpUpdate
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpUpdate:
		return "update"
	default:
		return "unknown"
	}
}

// LogRec is one write-log entry. For updates both Old and New are set; for
// inserts only New; for deletes only Old. Seq is the execute_order value.
type LogRec struct {
	Op    Op
	Table string
	Old   *storage.Record
	New   *storage.Record
	Seq   int64
}

// Status is a transaction's lifecycle state.
type Status uint8

// Transaction states.
const (
	Active Status = iota
	Committed
	Aborted
)

// ErrNotActive is returned for operations on finished transactions.
var ErrNotActive = errors.New("txn: transaction is not active")

// ErrReadOnly is returned when a read-only transaction attempts a write.
var ErrReadOnly = errors.New("txn: transaction is read-only")

// CommitHook runs inside Commit before locks are released. The rule system
// registers itself here.
type CommitHook func(*Txn) error

// DurableLog persists a committing transaction's write log before the
// commit is acknowledged (write-ahead logging). LogCommit must block until
// the records are durable; an error aborts the transaction. The WAL
// subsystem registers itself here via Manager.SetWAL.
type DurableLog interface {
	LogCommit(*Txn) error
}

// DefaultEscalation is the record-lock count per table at which a
// transaction escalates to a full table lock (see Manager.EscalateAt).
const DefaultEscalation = 64

// Manager creates and coordinates transactions.
type Manager struct {
	Catalog *catalog.Catalog
	Store   *storage.Store
	Locks   *lock.Manager
	Clock   clock.Clock
	Meter   *cost.Meter
	Model   cost.Model
	// Obs is the engine's shared metrics registry; downstream layers (the
	// rule engine, query execution) instrument through it.
	Obs *obs.Registry
	// Query holds the instruments the query executor records into on every
	// select, scan and probe, resolved here once so that path never looks
	// one up by name under the registry lock.
	Query QueryMetrics

	// EscalateAt is the number of record locks a transaction may take on
	// one table before escalating to a full table S/X lock; <= 0 means
	// DefaultEscalation. Set before transactions begin.
	EscalateAt int

	nextID     atomic.Int64
	commitHook atomic.Pointer[CommitHook]
	wal        atomic.Pointer[DurableLog]
	// openWriters counts transactions that have written and have neither
	// reached the durable log nor finished (see OpenWriters).
	openWriters atomic.Int64

	// MVCC commit-stamp authority. lastVisible is the newest commit LSN
	// whose version stamps are fully applied; snapshots read it. stampMu
	// serializes {allocate LSN, stamp the write log, publish lastVisible}
	// so a reader that observes lastVisible == L is guaranteed every stamp
	// at or below L is in place (no torn snapshots across group-commit
	// batches). The sequence is seeded from the WAL at open (SeedLSN) so
	// recovery-restored stamps sort below every post-restart commit.
	lastVisible atomic.Uint64
	stampMu     sync.Mutex
	// snapMu guards the active-snapshot registry used for the GC horizon.
	snapMu sync.Mutex
	snaps  map[int64]uint64
	// stamps counts stamped commits to pace version GC; gcMu keeps sweeps
	// single-flight without blocking committers.
	stamps atomic.Int64
	gcMu   sync.Mutex

	committed   *obs.Counter
	aborted     *obs.Counter
	escalations *obs.Counter
	readonly    *obs.Counter
	snapshots   *obs.Counter
	gcRuns      *obs.Counter
	gcDropped   *obs.Counter
	versionsG   *obs.Gauge
	snapAgeG    *obs.Gauge
	commitHist  *obs.Histogram
	abortHist   *obs.Histogram
	tracer      *obs.Tracer
}

// QueryMetrics are the query executor's hot-path instruments (see
// Manager.Query).
type QueryMetrics struct {
	Selects              *obs.Counter
	SelectMicros         *obs.Histogram
	PlanBuilds           *obs.Counter
	PlanHits             *obs.Counter
	PlanFeedbackRebuilds *obs.Counter
	SnapshotScans        *obs.Counter
	SnapshotProbes       *obs.Counter
}

// NewManager wires a transaction manager over the given substrates with a
// private metrics registry (see Instrument).
func NewManager(cat *catalog.Catalog, store *storage.Store, locks *lock.Manager, clk clock.Clock, meter *cost.Meter, model cost.Model) *Manager {
	m := &Manager{Catalog: cat, Store: store, Locks: locks, Clock: clk, Meter: meter, Model: model}
	m.lastVisible.Store(storage.BootstrapLSN)
	m.Instrument(obs.NewRegistry())
	return m
}

// Instrument rebinds the manager's counters, latency histograms, and
// tracer to reg. Call before transactions begin.
func (m *Manager) Instrument(reg *obs.Registry) {
	m.Obs = reg
	m.committed = reg.Counter(obs.MTxnCommitted)
	m.aborted = reg.Counter(obs.MTxnAborted)
	m.escalations = reg.Counter(obs.MLockEscalations)
	m.readonly = reg.Counter(obs.MTxnReadOnly)
	m.snapshots = reg.Counter(obs.MMvccSnapshots)
	m.gcRuns = reg.Counter(obs.MMvccGCRuns)
	m.gcDropped = reg.Counter(obs.MMvccGCDropped)
	m.versionsG = reg.Gauge(obs.MMvccVersionsRetained)
	m.snapAgeG = reg.Gauge(obs.MMvccSnapshotAge)
	m.commitHist = reg.Histogram(obs.MTxnCommitMicros)
	m.abortHist = reg.Histogram(obs.MTxnAbortMicros)
	m.tracer = reg.Tracer()
	m.Query = QueryMetrics{
		Selects:              reg.Counter(obs.MQuerySelects),
		SelectMicros:         reg.Histogram(obs.MQuerySelectMicros),
		PlanBuilds:           reg.Counter(obs.MQueryPlanBuilds),
		PlanHits:             reg.Counter(obs.MQueryPlanHits),
		PlanFeedbackRebuilds: reg.Counter(obs.MQueryPlanFeedbackRebuilds),
		SnapshotScans:        reg.Counter(obs.MMvccSnapshotScans),
		SnapshotProbes:       reg.Counter(obs.MMvccSnapshotProbes),
	}
}

// escalateAt returns the effective record-lock escalation threshold.
func (m *Manager) escalateAt() int {
	if m.EscalateAt > 0 {
		return m.EscalateAt
	}
	return DefaultEscalation
}

// SetCommitHook registers the hook run at the end of every transaction.
func (m *Manager) SetCommitHook(h CommitHook) {
	m.commitHook.Store(&h)
}

// SetWAL registers the write-ahead log every commit must reach before it is
// acknowledged. Call before transactions begin; nil disables durability.
func (m *Manager) SetWAL(w DurableLog) {
	if w == nil {
		m.wal.Store(nil)
		return
	}
	m.wal.Store(&w)
}

// OpenWriters reports how many transactions have written something and not
// yet handed it to the durable log (Txn.ReachedLog) or finished. The group
// committer reads it as evidence that another commit is on its way.
func (m *Manager) OpenWriters() int { return int(m.openWriters.Load()) }

// Begin starts a transaction.
func (m *Manager) Begin() *Txn {
	m.Meter.Charge(m.Model.BeginTxn)
	return &Txn{id: m.nextID.Add(1), mgr: m, startAt: m.Clock.Now(), done: make(chan struct{})}
}

// BeginReadOnly starts a read-only transaction. It never touches the lock
// manager: all reads resolve against the transaction's begin snapshot
// (newest commit LSN at first read), writes fail with ErrReadOnly, and
// commit/abort skip lock release.
func (m *Manager) BeginReadOnly() *Txn {
	t := m.Begin()
	t.readOnly = true
	t.snapReads = true
	m.readonly.Inc()
	return t
}

// SeedLSN initializes the commit-stamp sequence (and therefore the first
// snapshot) to lsn. Called once at open with the WAL's recovered LSN so
// version stamps restored by recovery sort below every new commit. The
// sequence never drops below BootstrapLSN, so loader-stamped rows stay
// visible to every snapshot.
func (m *Manager) SeedLSN(lsn uint64) {
	if lsn < storage.BootstrapLSN {
		lsn = storage.BootstrapLSN
	}
	m.lastVisible.Store(lsn)
}

// LastVisible returns the newest commit LSN whose stamps are published —
// the snapshot a transaction beginning now would read at.
func (m *Manager) LastVisible() uint64 { return m.lastVisible.Load() }

// OldestSnapshot returns the version-GC horizon: the oldest LSN any active
// snapshot holds, or the newest published LSN when no snapshot is out.
// Every version whose successor committed at or before the horizon is
// unreachable by current and future snapshots.
func (m *Manager) OldestSnapshot() uint64 {
	m.snapMu.Lock()
	defer m.snapMu.Unlock()
	h := m.lastVisible.Load()
	for _, s := range m.snaps {
		if s < h {
			h = s
		}
	}
	return h
}

// RunVersionGC releases, in every table, the record versions below the GC
// horizon, and refreshes the versions-retained and snapshot-age gauges. A
// table is swept through its dirty heads and retired set (see
// storage.Table.ReleaseVersions), so the cost follows the versions written
// since the last run, not the database size. Concurrent calls coalesce
// (single flight). Returns versions dropped.
func (m *Manager) RunVersionGC() (dropped int64) {
	if !m.gcMu.TryLock() {
		return 0
	}
	defer m.gcMu.Unlock()
	horizon := m.OldestSnapshot()
	var retained int64
	for _, tbl := range m.Store.Tables() {
		dropped += tbl.ReleaseVersions(horizon)
		retained += tbl.Stats().VersionsRetained
	}
	m.gcRuns.Inc()
	m.gcDropped.Add(dropped)
	m.versionsG.Set(retained)
	m.snapAgeG.Set(int64(m.lastVisible.Load() - horizon))
	return dropped
}

// gcEvery paces the version GC: one sweep per this many stamped commits.
const gcEvery = 64

func (m *Manager) maybeGC() {
	if m.stamps.Add(1)%gcEvery == 0 {
		m.RunVersionGC()
	}
}

// Committed reports how many transactions have committed.
func (m *Manager) Committed() int64 { return m.committed.Load() }

// Aborted reports how many transactions have aborted.
func (m *Manager) Aborted() int64 { return m.aborted.Load() }

// tableAccess tracks a transaction's lock footprint on one table: the cost
// accounting level (Table 1 charges one get-lock per table per access-level
// transition: none->read, none->write, read->write), the strongest
// table-level mode held, and the mode held per record, so repeated probes
// of the same row are free and the distinct records (recs.n) count toward
// escalation.
type tableAccess struct {
	chargeLevel int       // 0 none, 1 read, 2 write
	tblMode     lock.Mode // sup of table-level modes acquired
	hasTbl      bool
	recs        inlineMap[uint64, lock.Mode]
}

// inlineMap is a map whose first few entries live inline, so a transaction
// touching a few tables and records allocates nothing to track them. n
// counts every entry; past len(keys) they spill to the map.
type inlineMap[K comparable, V any] struct {
	n     int
	keys  [4]K
	vals  [4]V
	spill map[K]*V
}

// find returns k's value, or nil if k was never added.
func (m *inlineMap[K, V]) find(k K) *V {
	for i := range m.keys[:min(m.n, len(m.keys))] {
		if m.keys[i] == k {
			return &m.vals[i]
		}
	}
	return m.spill[k]
}

// add inserts k, which must be absent, with a zero value and returns it.
func (m *inlineMap[K, V]) add(k K) *V {
	var v *V
	if m.n < len(m.keys) {
		m.keys[m.n], v = k, &m.vals[m.n]
	} else {
		if m.spill == nil {
			m.spill = make(map[K]*V)
		}
		v = new(V)
		m.spill[k] = v
	}
	m.n++
	return v
}

// Txn is an in-flight transaction.
type Txn struct {
	id     int64
	mgr    *Manager
	status Status
	log    []LogRec
	seq    int64
	// writing is set while this transaction counts in Manager.openWriters.
	writing bool
	// access tracks per-table lock state (single-goroutine; a Txn is not
	// shared across goroutines while active).
	access inlineMap[string, tableAccess]
	// startAt is the engine time Begin was called (latency measurement).
	startAt clock.Micros
	// commitAt is the engine time at which the transaction committed
	// (instantiates bound-table commit_time columns).
	commitAt clock.Micros

	// readOnly rejects writes and skips the lock manager entirely.
	// snapReads routes reads through version-chain snapshot visibility
	// instead of S/IS locks (set for read-only txns, and for rule-action
	// txns whose writes still use two-level locking). snap is the begin
	// snapshot LSN, acquired lazily at first snapshot read and registered
	// with the manager until the transaction finishes.
	readOnly  bool
	snapReads bool
	snap      uint64
	snapHeld  bool

	// done closes when Commit or Abort has fully finished — including
	// commit stamping, so a waiter's subsequent snapshot observes this
	// transaction's effects (the rule engine waits on triggering txns
	// before running an action against a snapshot).
	done chan struct{}

	// trace/cause carry span identity for causal tracing: trace is the
	// causal chain's root (the triggering user transaction's id), cause the
	// entity id of the direct parent (the scheduler task running this
	// transaction). Zero for ordinary user transactions, whose commits root
	// their own chains.
	trace int64
	cause int64

	// profile, when set, receives this transaction's row and lock-wait
	// accounting (rule-action transactions point it at their rule's cost
	// profile; nil for user transactions, whose hot path pays only the nil
	// check).
	profile *TxnProfile
}

// TxnProfile accumulates one transaction's measurable work: executor row
// counters and lock-wait wall time. A Txn is single-goroutine while active,
// so plain fields suffice; the owner drains the totals into a shared
// obs.Profile after commit.
type TxnProfile struct {
	RowsScanned    int64
	RowsMatched    int64
	RowsWritten    int64
	LockWaitMicros int64
}

// ID returns the transaction id.
func (t *Txn) ID() int64 { return t.id }

// Manager returns the owning manager.
func (t *Txn) Manager() *Manager { return t.mgr }

// SetCause stamps the transaction with span identity: trace is the causal
// chain's root id and cause the direct parent entity (the scheduler task).
// The rule engine sets this on action transactions so their commits link
// back to the user commit that triggered them.
func (t *Txn) SetCause(trace, cause int64) { t.trace, t.cause = trace, cause }

// Trace returns the causal chain root this transaction belongs to: its own
// id for ordinary transactions (every commit roots a chain), or the
// triggering transaction's id when SetCause linked it into an existing
// chain.
func (t *Txn) Trace() int64 {
	if t.trace != 0 {
		return t.trace
	}
	return t.id
}

// SetProfile points the transaction's row and lock-wait accounting at p
// (nil disables, the default).
func (t *Txn) SetProfile(p *TxnProfile) { t.profile = p }

// Profile returns the transaction's cost accumulator, nil when disabled.
// The query executor adds rows scanned/matched here.
func (t *Txn) Profile() *TxnProfile { return t.profile }

// Status returns the transaction state.
func (t *Txn) Status() Status { return t.status }

// Log returns the write log (shared slice; callers must not mutate).
func (t *Txn) Log() []LogRec { return t.log }

// CommitTime returns the commit timestamp (valid once committed).
func (t *Txn) CommitTime() clock.Micros { return t.commitAt }

// ReadOnly reports whether the transaction rejects writes.
func (t *Txn) ReadOnly() bool { return t.readOnly }

// EnableSnapshotReads switches the transaction's reads to lock-free
// snapshot visibility while writes keep the two-level lock protocol. The
// rule engine enables this for action transactions once every triggering
// transaction has finished stamping (so the snapshot includes them).
func (t *Txn) EnableSnapshotReads() { t.snapReads = true }

// SnapshotReads reports whether reads bypass the lock manager.
func (t *Txn) SnapshotReads() bool { return t.snapReads }

// LockedReads runs fn with snapshot reads disabled: reads issued inside fn
// acquire S/IS locks held to commit, serializing against writers. This is
// the read-modify-write escape hatch for snapshot-read transactions — two
// snapshot readers incrementing the same row would each read the same
// pre-image and silently lose one increment, so such reads must lock.
// Read-only transactions cannot use it (they skip the lock manager).
func (t *Txn) LockedReads(fn func() error) error {
	if t.readOnly {
		return ErrReadOnly
	}
	prev := t.snapReads
	t.snapReads = false
	defer func() { t.snapReads = prev }()
	return fn()
}

// SnapshotRead returns the snapshot LSN and reader identity for lock-free
// reads, acquiring and registering the snapshot on first use. ok is false
// when the transaction reads under locks instead.
func (t *Txn) SnapshotRead() (snap uint64, me int64, ok bool) {
	if !t.snapReads || t.status != Active {
		return 0, 0, false
	}
	if !t.snapHeld {
		m := t.mgr
		m.snapMu.Lock()
		t.snap = m.lastVisible.Load()
		if m.snaps == nil {
			m.snaps = make(map[int64]uint64)
		}
		m.snaps[t.id] = t.snap
		m.snapMu.Unlock()
		t.snapHeld = true
		m.snapshots.Inc()
	}
	return t.snap, t.id, true
}

// releaseSnapshot drops the transaction's GC-horizon registration.
func (t *Txn) releaseSnapshot() {
	if !t.snapHeld {
		return
	}
	t.mgr.snapMu.Lock()
	delete(t.mgr.snaps, t.id)
	t.mgr.snapMu.Unlock()
	t.snapHeld = false
}

// Wait blocks until the transaction has finished committing or aborting,
// including commit stamping: a snapshot taken after Wait returns observes
// the transaction's effects (or their absence, on abort).
func (t *Txn) Wait() { <-t.done }

// Done returns the channel Wait blocks on, for waiters that must not keep
// the transaction itself (its write log, its lock tables) alive meanwhile.
func (t *Txn) Done() <-chan struct{} { return t.done }

// record appends one change to the write log; the first one makes the
// transaction an open writer.
func (t *Txn) record(lr LogRec) {
	if !t.writing {
		t.writing = true
		t.mgr.openWriters.Add(1)
	}
	t.seq++
	lr.Seq = t.seq
	t.log = append(t.log, lr)
}

// ReachedLog ends this transaction's time as an open writer. A DurableLog
// calls it on entry to LogCommit — from there the commit is the log's to
// count — and finish calls it for transactions that never get that far.
func (t *Txn) ReachedLog() {
	if t.writing {
		t.writing = false
		t.mgr.openWriters.Add(-1)
	}
}

// finish publishes completion to waiters.
func (t *Txn) finish() {
	t.ReachedLog()
	if t.done != nil {
		close(t.done)
	}
}

// Charge adds virtual CPU to the engine meter.
func (t *Txn) Charge(micros float64) { t.mgr.Meter.Charge(micros) }

// Model returns the engine's cost model.
func (t *Txn) Model() cost.Model { return t.mgr.Model }

// acquire forwards a table lock, or with record set the lock on record id,
// to the lock manager, clocking the wait into the transaction's profile when
// one is attached (rule-action transactions); unprofiled transactions pay a
// nil check.
func (t *Txn) acquire(table string, id uint64, record bool, mode lock.Mode) error {
	var start clock.Micros
	if t.profile != nil {
		start = t.mgr.Clock.Now()
	}
	var err error
	if record {
		err = t.mgr.Locks.AcquireRecord(t.id, table, id, mode)
	} else {
		err = t.mgr.Locks.AcquireTable(t.id, table, mode)
	}
	if t.profile != nil {
		t.profile.LockWaitMicros += int64(t.mgr.Clock.Now() - start)
	}
	return err
}

func (t *Txn) table(name string) (*storage.Table, error) {
	tbl, ok := t.mgr.Store.Get(name)
	if !ok {
		return nil, fmt.Errorf("txn: table %q does not exist", name)
	}
	return tbl, nil
}

// tableAccessFor returns (creating if needed) the access state for a table.
func (t *Txn) tableAccessFor(name string) *tableAccess {
	if a := t.access.find(name); a != nil {
		return a
	}
	return t.access.add(name)
}

// lockTable acquires a table-level lock. write selects the cost accounting
// level: Table 1 charges one get-lock per table per access-level transition
// (none->read, none->write, read->write); strengthening within a level and
// record locks are free, matching the paper's one-get-lock-per-resource
// accounting.
func (t *Txn) lockTable(name string, mode lock.Mode, write bool) (*tableAccess, error) {
	a := t.tableAccessFor(name)
	level := 1
	if write {
		level = 2
	}
	if a.chargeLevel < level {
		t.mgr.Meter.Charge(t.mgr.Model.GetLock)
		a.chargeLevel = level
	}
	if a.hasTbl && lock.Covers(a.tblMode, mode) {
		return a, nil
	}
	if err := t.acquire(name, 0, false, mode); err != nil {
		return nil, err
	}
	if a.hasTbl {
		a.tblMode = lock.Sup(a.tblMode, mode)
	} else {
		a.tblMode, a.hasTbl = mode, true
	}
	return a, nil
}

// lockTableAPI is the shared body of the four table-level lock entry points.
func (t *Txn) lockTableAPI(name string, mode lock.Mode, write bool) (*storage.Table, error) {
	if t.status != Active {
		return nil, ErrNotActive
	}
	tbl, err := t.table(name)
	if err != nil {
		return nil, err
	}
	if !write && t.snapReads {
		// Lock-free snapshot reads: no table S/IS lock. The query layer
		// resolves row visibility through ScanSnapshot/LookupSnapshot at
		// the transaction's begin snapshot.
		return tbl, nil
	}
	if write && t.readOnly {
		return nil, ErrReadOnly
	}
	if _, err := t.lockTable(name, mode, write); err != nil {
		return nil, err
	}
	return tbl, nil
}

// ReadTable acquires an intention-shared lock on the table and returns it.
// The query engine resolves table reads through this; the rows actually
// touched are then locked individually (LockRecordShared) or, for full
// scans, covered by ScanTable's table-level S.
func (t *Txn) ReadTable(name string) (*storage.Table, error) {
	return t.lockTableAPI(name, lock.IntentShared, false)
}

// ScanTable acquires a full shared lock on the table — the read-side
// escalation used by table scans, which would otherwise have to lock every
// row. It blocks out record writers (their IX conflicts with S).
func (t *Txn) ScanTable(name string) (*storage.Table, error) {
	return t.lockTableAPI(name, lock.Shared, false)
}

// WriteIntent acquires an intention-exclusive lock on the table and returns
// it. Callers must then X-lock each record they touch (Insert, Update, and
// Delete do this themselves).
func (t *Txn) WriteIntent(name string) (*storage.Table, error) {
	return t.lockTableAPI(name, lock.IntentExclusive, true)
}

// WriteTable acquires an exclusive lock on the whole table and returns it —
// the write-side escalation, used for scan-driven writes and DDL.
func (t *Txn) WriteTable(name string) (*storage.Table, error) {
	return t.lockTableAPI(name, lock.Exclusive, true)
}

// lockRecord takes a record-granularity lock under the table's intent,
// escalating to a full table lock once the transaction has touched
// Manager.EscalateAt records of the table.
func (t *Txn) lockRecord(name string, id uint64, mode lock.Mode, write bool) error {
	if t.status != Active {
		return ErrNotActive
	}
	intent := lock.IntentShared
	if write {
		intent = lock.IntentExclusive
	}
	a, err := t.lockTable(name, intent, write)
	if err != nil {
		return err
	}
	if lock.Covers(a.tblMode, mode) {
		return nil // table-level lock already covers the record
	}
	held := a.recs.find(id)
	if held != nil && lock.Covers(*held, mode) {
		return nil
	}
	if held == nil && a.recs.n >= t.mgr.escalateAt() {
		t.mgr.escalations.Inc()
		if err := t.acquire(name, 0, false, mode); err != nil {
			return err
		}
		a.tblMode = lock.Sup(a.tblMode, mode)
		return nil
	}
	if err := t.acquire(name, id, true, mode); err != nil {
		return err
	}
	if held == nil {
		*a.recs.add(id) = mode
	} else {
		*held = lock.Sup(*held, mode)
	}
	return nil
}

// LockRecordShared S-locks one record (by its stable ID) under the table's
// IS intent. Index probes use this to lock only the rows they touch.
func (t *Txn) LockRecordShared(name string, id uint64) error {
	return t.lockRecord(name, id, lock.Shared, false)
}

// LockRecordExclusive X-locks one record under the table's IX intent.
func (t *Txn) LockRecordExclusive(name string, id uint64) error {
	return t.lockRecord(name, id, lock.Exclusive, true)
}

// Insert adds a row to the named table. The record's lock ID is reserved
// and X-locked before the row is linked, so no reader can observe the
// uncommitted row between visibility and lock acquisition.
func (t *Txn) Insert(table string, vals []types.Value) (*storage.Record, error) {
	tbl, err := t.WriteIntent(table)
	if err != nil {
		return nil, err
	}
	id := tbl.ReserveID()
	if err := t.LockRecordExclusive(table, id); err != nil {
		return nil, err
	}
	rec, err := tbl.InsertReserved(id, vals)
	if err != nil {
		return nil, err
	}
	// Tag the uncommitted version with its writer for read-your-own-writes
	// snapshot visibility; createLSN stays 0 (invisible to others) until
	// commit stamping.
	rec.SetWriter(t.id)
	t.mgr.Meter.Charge(t.mgr.Model.InsertCursor)
	if t.profile != nil {
		t.profile.RowsWritten++
	}
	t.record(LogRec{Op: OpInsert, Table: table, New: rec})
	return rec, nil
}

// Delete removes a record from the named table.
func (t *Txn) Delete(table string, rec *storage.Record) error {
	tbl, err := t.WriteIntent(table)
	if err != nil {
		return err
	}
	if err := t.LockRecordExclusive(table, rec.ID()); err != nil {
		return err
	}
	// The pending tombstone Delete installs must carry this transaction's
	// identity before it becomes observable: a pending delete hides the
	// record from its own writer only.
	rec.SetWriter(t.id)
	if err := tbl.Delete(rec); err != nil {
		return err
	}
	t.mgr.Meter.Charge(t.mgr.Model.DeleteCursor)
	if t.profile != nil {
		t.profile.RowsWritten++
	}
	t.record(LogRec{Op: OpDelete, Table: table, Old: rec})
	return nil
}

// Update replaces a record's values (copy-on-update under the covers) and
// returns the new record. The replacement inherits the old record's lock
// ID, so the X lock taken here covers both versions.
func (t *Txn) Update(table string, rec *storage.Record, vals []types.Value) (*storage.Record, error) {
	tbl, err := t.WriteIntent(table)
	if err != nil {
		return nil, err
	}
	if err := t.LockRecordExclusive(table, rec.ID()); err != nil {
		return nil, err
	}
	nr, err := tbl.Update(rec, vals)
	if err != nil {
		return nil, err
	}
	nr.SetWriter(t.id)
	t.mgr.Meter.Charge(t.mgr.Model.UpdateCursor)
	if t.profile != nil {
		t.profile.RowsWritten++
	}
	t.record(LogRec{Op: OpUpdate, Table: table, Old: rec, New: nr})
	return nr, nil
}

// Commit finishes the transaction: the commit hook (rule processing) runs
// first, inside the transaction; then the commit timestamp is taken and
// locks are released. If the hook fails the transaction aborts.
func (t *Txn) Commit() error {
	if t.status != Active {
		return ErrNotActive
	}
	if hp := t.mgr.commitHook.Load(); hp != nil && *hp != nil {
		if err := (*hp)(t); err != nil {
			abortErr := t.Abort()
			if abortErr != nil {
				return fmt.Errorf("txn: commit hook failed (%w); abort also failed: %v", err, abortErr)
			}
			return fmt.Errorf("txn: aborted by commit hook: %w", err)
		}
	}
	t.commitAt = t.mgr.Clock.Now()
	// Write-ahead: the redo records must be durable before the commit is
	// acknowledged or any lock released. Aborts never reach this point, so
	// an aborted transaction leaves zero redo records behind.
	if wp := t.mgr.wal.Load(); wp != nil && len(t.log) > 0 {
		if err := (*wp).LogCommit(t); err != nil {
			abortErr := t.Abort()
			if abortErr != nil {
				return fmt.Errorf("txn: commit not durable (%w); abort also failed: %v", err, abortErr)
			}
			return fmt.Errorf("txn: aborted, commit not durable: %w", err)
		}
	}
	// Stamp every version this transaction wrote with its commit LSN,
	// after durability but before any lock is released: a conflicting
	// successor can only reach these records once the stamps are
	// published, so stamp order agrees with serialization order. The
	// allocate-stamp-publish sequence is atomic under stampMu, so a
	// snapshot reader that loads lastVisible == L sees every stamp <= L
	// (no torn snapshots even when group commit batches several txns).
	if len(t.log) > 0 {
		m := t.mgr
		m.stampMu.Lock()
		lsn := m.lastVisible.Load() + 1
		for _, lr := range t.log {
			switch lr.Op {
			case OpInsert:
				lr.New.StampCreate(lsn)
			case OpDelete:
				lr.Old.StampDelete(lsn)
			case OpUpdate:
				lr.New.StampCreate(lsn)
				lr.Old.StampDelete(lsn)
			}
		}
		m.lastVisible.Store(lsn)
		m.stampMu.Unlock()
		m.maybeGC()
	}
	t.status = Committed
	t.releaseSnapshot()
	t.mgr.Meter.Charge(t.mgr.Model.CommitTxn + t.mgr.Model.ReleaseLock)
	if !t.readOnly {
		t.mgr.Locks.ReleaseAll(t.id)
	}
	t.mgr.committed.Inc()
	t.mgr.commitHist.Record(t.commitAt - t.startAt)
	// Every commit roots or extends a causal chain: Trace is the chain root
	// (own id unless SetCause linked this txn under a triggering commit) and
	// Parent the task that ran it (0 for user transactions).
	t.mgr.tracer.EmitSpan(t.commitAt, obs.KindTxnCommit, "", t.id, t.Trace(), t.cause)
	t.finish()
	return nil
}

// Abort rolls back every change in reverse log order and releases locks.
func (t *Txn) Abort() error {
	if t.status != Active {
		return ErrNotActive
	}
	var firstErr error
	for i := len(t.log) - 1; i >= 0; i-- {
		rec := t.log[i]
		tbl, err := t.table(rec.Table)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		switch rec.Op {
		case OpInsert:
			err = tbl.Delete(rec.New)
		case OpDelete:
			err = tbl.Relink(rec.Old)
		case OpUpdate:
			// One storage operation, not Delete(new) + Relink(old): between
			// the two the copy would sit in the retired set still chained to
			// the original, and a snapshot scan would reach that row twice.
			err = tbl.UndoUpdate(rec.Old, rec.New)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	t.status = Aborted
	t.log = nil
	t.releaseSnapshot()
	t.mgr.Meter.Charge(t.mgr.Model.AbortTxn + t.mgr.Model.ReleaseLock)
	if !t.readOnly {
		t.mgr.Locks.ReleaseAll(t.id)
	}
	now := t.mgr.Clock.Now()
	t.mgr.aborted.Inc()
	t.mgr.abortHist.Record(now - t.startAt)
	t.mgr.tracer.EmitSpan(now, obs.KindTxnAbort, "", t.id, t.Trace(), t.cause)
	t.finish()
	return firstErr
}
