// Package strip is a Go reproduction of STRIP — the STanford Real-time
// Information Processor — and its rule system, as described in
// "The STRIP Rule System For Efficiently Maintaining Derived Data"
// (Adelberg, Garcia-Molina, Widom; SIGMOD 1997).
//
// STRIP is a main-memory, soft real-time database whose active rules extend
// SQL3-style triggers with unique transactions: rule actions run in new,
// optionally delayed tasks, and while such a task is queued, further rule
// firings for the same user function (and the same unique-column values)
// append their bound-table rows to it instead of enqueueing more work. This
// batches derived-data recomputation across transaction boundaries and lets
// applications pick both the unit of batching and the delay window.
//
// The package wires the engine's substrates — storage, locking,
// transactions, query processing, scheduling, and the rule system — behind
// a small API:
//
//	db := strip.MustOpen(strip.Config{})
//	db.MustExec(`create table stocks (symbol text, price float)`)
//	db.RegisterFunc("recompute", func(ctx *strip.ActionContext) error { ... })
//	db.MustExec(`create rule r on stocks when updated price
//	             if select * from new bind as changes
//	             then execute recompute unique on symbol after 1.0 seconds`)
//
// See the examples directory for complete programs and the ptabench
// package for the paper's program-trading evaluation.
package strip

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/core"
	"github.com/stripdb/strip/internal/cost"
	"github.com/stripdb/strip/internal/index"
	"github.com/stripdb/strip/internal/lock"
	"github.com/stripdb/strip/internal/mon"
	"github.com/stripdb/strip/internal/obs"
	"github.com/stripdb/strip/internal/query"
	"github.com/stripdb/strip/internal/repl"
	"github.com/stripdb/strip/internal/sched"
	"github.com/stripdb/strip/internal/server"
	"github.com/stripdb/strip/internal/sqlparse"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
	"github.com/stripdb/strip/internal/wal"
)

// Re-exported engine types: the facade keeps one import path for users.
type (
	// ActionContext is the environment passed to rule action functions.
	ActionContext = core.ActionContext
	// ActionFunc is a rule action callback.
	ActionFunc = core.ActionFunc
	// Rule is a programmatic rule definition (the SQL form is usually
	// more convenient; see Exec).
	Rule = core.Rule
	// EventSpec is one event of a rule's transition predicate.
	EventSpec = core.EventSpec
	// Task is the scheduler's unit of work.
	Task = sched.Task
	// Txn is a database transaction.
	Txn = txn.Txn
	// Value is a column value.
	Value = types.Value
	// TempTable is a temporary (bound/result) table.
	TempTable = storage.TempTable
	// Select is a programmatic query.
	Select = query.Select
	// CostModel is the virtual CPU cost model.
	CostModel = cost.Model
	// ActionStats summarizes a user function's rule activity.
	ActionStats = core.ActionStats
	// RuleHealth is a user function's circuit-breaker view (see DB.RuleHealth).
	RuleHealth = core.RuleHealth
	// RecoveryStats summarizes what Open restored from a DataDir.
	RecoveryStats = wal.RecoveryStats
)

// Transition-predicate events for programmatic rules.
const (
	Inserted = core.Inserted
	Deleted  = core.Deleted
	Updated  = core.Updated
)

// Value constructors, re-exported for building rows programmatically.
var (
	Int   = types.Int
	Float = types.Float
	Str   = types.Str
	Time  = types.Time
)

// Typed errors, re-exported so applications can classify failures with
// errors.Is without importing internal packages. All are returned wrapped
// (with context); always test with errors.Is, not equality.
var (
	// ErrDeadlock marks a transaction chosen as a deadlock victim. The
	// transaction is aborted; retry it (rule actions retry automatically).
	ErrDeadlock = lock.ErrDeadlock
	// ErrWaitTimeout marks a lock wait that exceeded Config.LockMaxWait.
	// Like a deadlock abort it is transient: the transaction was aborted
	// and can be retried.
	ErrWaitTimeout = lock.ErrWaitTimeout
	// ErrReadOnly marks a write attempted inside a read-only transaction.
	ErrReadOnly = txn.ErrReadOnly
	// ErrShuttingDown marks work rejected because Close is in progress.
	ErrShuttingDown = sched.ErrStopped
	// ErrBusy marks a network request shed by the server's admission
	// control (connection cap, in-flight limit, engine saturation). Like a
	// deadlock abort it is transient: back off and retry.
	ErrBusy = server.ErrBusy
)

// IsRetryable reports whether err is a transient abort worth retrying: a
// concurrency abort (deadlock victim, lock-wait timeout), an
// admission-control busy shed, or a replica lag-bound refusal — embedded or
// decoded from the wire.
func IsRetryable(err error) bool {
	return core.IsRetryable(err) || errors.Is(err, server.ErrBusy) || errors.Is(err, server.ErrLagging)
}

// Policy names the scheduler policy.
type Policy = sched.Policy

// Scheduling policies.
const (
	FIFO = sched.FIFO
	EDF  = sched.EDF
	VDF  = sched.VDF
)

// Config controls engine construction.
type Config struct {
	// Virtual selects the discrete-event virtual clock (experiments).
	// Default is the real clock.
	Virtual bool
	// Policy selects the ready-queue scheduling policy (default FIFO).
	Policy Policy
	// Workers is the worker-pool size for live mode (default 4). Ignored
	// when Virtual is set: virtual time is driven by the caller.
	Workers int
	// Cost enables virtual CPU accounting with the given model. Nil uses
	// cost.Zero() in live mode and cost.Default() in virtual mode.
	Cost *CostModel
	// DataDir enables durability: commits reach a write-ahead log in this
	// directory before they are acknowledged, Checkpoint snapshots the
	// database there, and Open recovers whatever state the directory holds.
	// Empty keeps the engine purely in-memory (the default).
	DataDir string
	// LockShards partitions the lock table into this many hash shards
	// (rounded up to a power of two; default lock.DefaultShards). More
	// shards reduce mutex contention between transactions locking
	// unrelated resources.
	LockShards int
	// EscalationThreshold is the number of record locks a transaction may
	// take on one table before escalating to a full table lock (default
	// txn.DefaultEscalation). Lower values favor coarse locking; higher
	// values favor row-level parallelism at more lock-manager work.
	EscalationThreshold int
	// LockMaxWait caps how long one lock request may wait in total before
	// its transaction aborts with ErrWaitTimeout (a transient, retryable
	// abort). Zero (the default) waits indefinitely. Rule actions treat the
	// abort like a deadlock and retry with backoff.
	LockMaxWait time.Duration
	// Overload enables deadline-aware load shedding and adaptive batching
	// (zero value = disabled; see OverloadPolicy).
	Overload OverloadPolicy
	// BreakerThreshold is the consecutive-failure count that quarantines a
	// rule function's firings (circuit breaker). Zero selects
	// core.DefaultBreakerThreshold; negative disables breakers.
	BreakerThreshold int
	// BreakerCooldown is how long a quarantined function stays open before
	// a probe firing is admitted (default core.DefaultBreakerCooldown, 1s
	// engine time).
	BreakerCooldown time.Duration
	// CloseTimeout bounds how long Close waits for queued ready tasks to
	// drain before stopping the workers (default 30s).
	CloseTimeout time.Duration
	// MonitorAddr starts the stripmon HTTP listener on this address
	// (host:port; ":0" picks a free port — see DB.MonitorAddr). It serves
	// /metrics (Prometheus text exposition), /debug/trace (causal span
	// dump), /debug/rules (per-rule cost profiles + breaker health), and
	// /debug/pprof. Empty (the default) disables the listener.
	MonitorAddr string
	// ReplicaOf turns this engine into a warm-standby replica of the
	// primary stripd server at this address (host:port): the primary's
	// write-ahead log streams in continuously and is replayed through the
	// recovery path, so read-only transactions (and served QUERY frames) see
	// the primary's committed state at the replica's applied LSN. Writes and
	// interactive transactions are refused with ErrReplica. Requires
	// DataDir — received frames are written to the local log before they
	// apply and fsynced on the Repl.Heartbeat cadence (and at stream end,
	// Close and Promote), which is what makes replica crash/restart resume
	// from its own LSN. See DB.Promote for failover.
	ReplicaOf string
	// Repl tunes replication when ReplicaOf is set.
	Repl ReplOptions
	// ListenAddr starts the stripd network server on this address
	// (host:port; ":0" picks a free port — see DB.ServerAddr). Clients
	// speak the binary wire protocol (package client); Serve tunes auth,
	// admission control and session lifecycle.
	// Empty (the default) disables serving.
	ListenAddr string
	// Serve tunes the network server when ListenAddr is set.
	Serve ServeOptions
	// TraceCap overrides the trace ring capacity (default
	// obs.DefaultTraceCap, 4096 events). Larger rings keep longer causal
	// histories for /debug/trace at ~64 bytes per slot.
	TraceCap int
}

// OverloadPolicy configures the scheduler's overload control. Disabled by
// default: the engine then behaves exactly as without the feature (the
// paper's experiments run at saturation and must not shed). When enabled,
// the scheduler treats the configured queue depth or ready-task lag as the
// saturation signal; past it, rules marked Firm have superseded or
// past-deadline recomputes dropped, and unique-rule batching windows widen
// so more firings merge into fewer tasks — staleness absorbs the overload
// instead of the ready queue.
type OverloadPolicy struct {
	// ShedDepth is the ready-queue depth at which overload control engages.
	// Zero disables depth-based shedding.
	ShedDepth int
	// ShedLag is the ready-task lag (time past release) at which overload
	// control engages. Zero disables lag-based shedding.
	ShedLag time.Duration
	// WidenMax caps adaptive batching-window widening as a multiple of the
	// rule's own delay (e.g. 4 = up to 4x). Values <= 1 disable widening.
	WidenMax float64
	// WidenBase is the window given to zero-delay unique rules when
	// widening engages (they have no delay to scale).
	WidenBase time.Duration
}

// DB is an open STRIP engine.
type DB struct {
	cfg    Config
	clk    clock.Clock
	vclk   *clock.Virtual
	meter  *cost.Meter
	model  cost.Model
	obs    *obs.Registry
	locks  *lock.Manager
	txns   *txn.Manager
	sched  *sched.Scheduler
	engine *core.Engine
	// stmts is the statement cache every text entry point prepares through:
	// Exec, ExecIn, Explain, served frames, and SQL run by rule actions.
	stmts  *sqlparse.Cache
	wal    *wal.Log
	mon    *mon.Server
	server *server.Server
	live   bool

	// shipper serves WAL streams to followers (set whenever the engine has
	// a durable log); follower replays a primary's stream when ReplicaOf is
	// set. replica gates writes: true from Open until Promote.
	shipper  *repl.Shipper
	follower *repl.Follower
	replica  atomic.Bool

	// ddlMu serializes DDL against checkpoints: a checkpoint must see the
	// catalog and the log agree on which tables exist.
	ddlMu sync.Mutex

	// closing is set at the start of Close: new facade work (Exec, Insert,
	// ExecAction) is rejected with ErrShuttingDown while the drain runs.
	closing atomic.Bool

	closeMu  sync.Mutex
	closed   bool
	closeErr error
}

// Open constructs an engine. With Config.DataDir set it first recovers the
// directory's snapshot and write-ahead log — restoring tables, indexes, and
// catalog — and every later commit becomes durable before it is
// acknowledged. Rules and action functions are code, not data: re-register
// them after Open and they arm over the recovered tables.
func Open(cfg Config) (*DB, error) {
	if cfg.ReplicaOf != "" && cfg.DataDir == "" {
		return nil, errors.New("strip: ReplicaOf requires DataDir (received frames are logged locally before they apply)")
	}
	db := &DB{cfg: cfg}
	if cfg.Virtual {
		db.vclk = clock.NewVirtual()
		db.clk = db.vclk
	} else {
		db.clk = clock.NewReal()
	}
	db.model = cost.Zero()
	if cfg.Virtual {
		db.model = cost.Default()
	}
	if cfg.Cost != nil {
		db.model = *cfg.Cost
	}
	db.meter = cost.NewMeter()
	db.obs = obs.NewRegistry()
	if cfg.TraceCap > 0 {
		db.obs.SetTraceCap(cfg.TraceCap)
	}
	// Bridge index-probe self-validation discards into this engine's
	// metrics (process-global hook, like the fault injector's arming model;
	// the most recently opened engine wins).
	reg := db.obs
	storage.SetCorruptionHook(func() { reg.Counter(obs.MStorageIndexCorrupt).Inc() })
	if cfg.LockShards > 0 {
		db.locks = lock.NewSharded(cfg.LockShards)
	} else {
		db.locks = lock.New()
	}
	db.locks.Instrument(db.obs, db.clk.Now)
	if cfg.LockMaxWait > 0 {
		db.locks.SetMaxWait(cfg.LockMaxWait)
	}
	db.txns = txn.NewManager(catalog.New(), storage.NewStore(), db.locks, db.clk, db.meter, db.model)
	db.txns.EscalateAt = cfg.EscalationThreshold
	db.txns.Instrument(db.obs)
	db.sched = sched.New(db.clk, cfg.Policy, db.meter, db.model)
	db.sched.Instrument(db.obs)
	db.sched.SetOverload(sched.Overload{
		ShedDepth: cfg.Overload.ShedDepth,
		ShedLag:   cfg.Overload.ShedLag.Microseconds(),
		WidenMax:  cfg.Overload.WidenMax,
		WidenBase: cfg.Overload.WidenBase.Microseconds(),
	})
	db.engine = core.NewEngine(db.txns, db.sched)
	db.stmts = sqlparse.NewCache()
	db.engine.SQL = actionSQL{db.stmts}
	db.engine.SetBreakerPolicy(cfg.BreakerThreshold, cfg.BreakerCooldown.Microseconds())
	if cfg.DataDir != "" {
		// Recovery runs before any worker starts and before any rule can be
		// registered, so replay never fires rules.
		w, err := wal.Open(cfg.DataDir, wal.Options{Registry: db.obs}, db.txns.Catalog, db.txns.Store)
		if err != nil {
			return nil, err
		}
		db.wal = w
		db.txns.SetWAL(w)
		// Seed the MVCC commit-stamp sequence past every LSN recovery
		// restored, so recovered version stamps sort below new commits and
		// the first post-recovery snapshot sees exactly the committed
		// prefix.
		db.txns.SeedLSN(w.NextLSN() - 1)
		// Any durable engine can ship its WAL to followers.
		db.shipper = repl.NewShipper(w, db.obs, cfg.Repl.Heartbeat)
	}
	if cfg.ReplicaOf != "" {
		db.replica.Store(true)
		db.follower = repl.NewFollower(repl.Config{
			Primary:     cfg.ReplicaOf,
			Token:       cfg.Repl.AuthToken,
			Tenant:      cfg.Repl.Tenant,
			Heartbeat:   cfg.Repl.Heartbeat,
			DialTimeout: cfg.Repl.DialTimeout,
		}, db.wal, db.txns.Catalog, db.txns.Store, db.txns, db.obs)
	}
	if cfg.MonitorAddr != "" {
		m, err := mon.Start(cfg.MonitorAddr, db.obs, db.clk.Now, func() any { return db.engine.RuleHealth() })
		if err != nil {
			if db.wal != nil {
				db.wal.Close() //nolint:errcheck // already failing
			}
			return nil, err
		}
		m.SetMaintenance(func() any { return db.engine.RuleModes() })
		if db.follower != nil {
			m.Handle("/debug/repl", db.replHandler())
		}
		db.mon = m
	}
	if db.follower != nil {
		db.follower.Start()
	}
	if !cfg.Virtual {
		workers := cfg.Workers
		if workers <= 0 {
			workers = 4
		}
		db.sched.Start(workers)
		db.live = true
	}
	if cfg.ListenAddr != "" {
		if err := db.startServer(); err != nil {
			db.Close() //nolint:errcheck // already failing
			return nil, err
		}
	}
	return db, nil
}

// MustOpen is Open that panics on error, for tests, examples, and
// in-memory engines (which cannot fail to open).
func MustOpen(cfg Config) *DB {
	db, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return db
}

// closeDrainTimeout bounds how long Close waits for queued ready tasks to
// finish before stopping the workers, when Config.CloseTimeout is unset.
const closeDrainTimeout = 30 * time.Second

// Close shuts the engine down gracefully: new facade work (Exec, Insert,
// ExecAction, task submission) is rejected with ErrShuttingDown, queued
// ready tasks are drained (bounded by Config.CloseTimeout, default 30s;
// whatever remains — including unreleased delayed tasks — is discarded
// through the tasks' shed path so their resources release), the worker pool
// stops after in-flight tasks finish, and the write-ahead log receives a
// final fsync and is closed. Close is idempotent: second and later calls
// return the first call's error without doing work.
func (db *DB) Close() error {
	db.closeMu.Lock()
	defer db.closeMu.Unlock()
	if db.closed {
		return db.closeErr
	}
	db.closed = true
	db.closing.Store(true)
	if db.server != nil {
		// Drain the network surface first: sessions get a bounded window to
		// COMMIT/ABORT in-flight transactions, and whatever remains open is
		// aborted — so no session can pin locks or submit work into the
		// scheduler drain below.
		db.server.Close() //nolint:errcheck
		db.server = nil
	}
	if db.follower != nil {
		// Stop replication before the WAL's final fsync: the replay loop is
		// the only writer on a replica, and a batch mid-apply must finish or
		// abort before the log closes underneath it.
		db.follower.Close()
	}
	if db.live {
		timeout := db.cfg.CloseTimeout
		if timeout <= 0 {
			timeout = closeDrainTimeout
		}
		// Drain then stop: workers finish everything already runnable so
		// those commits reach the log before the final fsync. StopDrain
		// rejects concurrent Submits the moment it is called, closing the
		// submit/stop race.
		db.sched.StopDrain(timeout)
		db.live = false
	} else {
		db.sched.Stop()
	}
	if db.mon != nil {
		// Stop serving before the WAL's final fsync so no scrape observes a
		// half-closed engine.
		db.mon.Close() //nolint:errcheck // read-only surface; nothing to lose
		db.mon = nil
	}
	if db.wal != nil {
		db.closeErr = db.wal.Close()
	}
	return db.closeErr
}

// MonitorAddr returns the stripmon listener's bound address (useful with
// Config.MonitorAddr ":0"), or "" when monitoring is disabled.
func (db *DB) MonitorAddr() string {
	if db.mon == nil {
		return ""
	}
	return db.mon.Addr()
}

// Begin starts a transaction. On a replica it degrades to a read-only
// snapshot transaction (writes inside it fail with ErrReadOnly); use the
// primary for read-write work.
func (db *DB) Begin() *Txn {
	if db.replica.Load() {
		return db.txns.BeginReadOnly()
	}
	return db.txns.Begin()
}

// BeginReadOnly starts a read-only transaction whose reads run lock-free
// against a consistent snapshot (the newest committed state at first read).
// It never blocks writers and writers never block it; writes inside it fail
// with txn.ErrReadOnly.
func (db *DB) BeginReadOnly() *Txn { return db.txns.BeginReadOnly() }

// RegisterFunc installs a rule action function.
func (db *DB) RegisterFunc(name string, fn ActionFunc) error {
	return db.engine.RegisterFunc(name, fn)
}

// CreateRule installs a programmatic rule definition.
func (db *DB) CreateRule(r *Rule) error {
	if err := db.writable("create rule"); err != nil {
		return err
	}
	return db.engine.CreateRule(r)
}

// DropRule removes a rule.
func (db *DB) DropRule(name string) error { return db.engine.DropRule(name) }

// CreateTable defines a table.
func (db *DB) CreateTable(name string, cols ...Column) error {
	cc := make([]catalog.Column, len(cols))
	for i, c := range cols {
		kind, err := types.KindFromName(c.Type)
		if err != nil {
			return err
		}
		cc[i] = catalog.Column{Name: c.Name, Kind: kind}
	}
	schema, err := catalog.NewSchema(name, cc)
	if err != nil {
		return err
	}
	if err := db.writable("create table"); err != nil {
		return err
	}
	return db.defineTable(schema)
}

// defineTable registers an empty table for the schema in the catalog and
// the store and logs the DDL, unwinding the first two if the log refuses.
func (db *DB) defineTable(schema *catalog.Schema) error {
	name := schema.Name()
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	if err := db.txns.Catalog.Define(schema); err != nil {
		return err
	}
	if _, err := db.txns.Store.Create(schema); err != nil {
		db.txns.Catalog.Drop(name) //nolint:errcheck // best-effort unwind
		return err
	}
	if db.wal != nil {
		if err := db.wal.LogCreateTable(schema); err != nil {
			db.txns.Store.Drop(name)   //nolint:errcheck // best-effort unwind
			db.txns.Catalog.Drop(name) //nolint:errcheck
			return err
		}
	}
	return nil
}

// DropTable removes a table's schema and data (and logs the drop).
func (db *DB) DropTable(name string) error {
	if err := db.writable("drop table"); err != nil {
		return err
	}
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	if err := db.txns.Catalog.Drop(name); err != nil {
		return err
	}
	if err := db.txns.Store.Drop(name); err != nil {
		return err
	}
	if db.wal != nil {
		return db.wal.LogDropTable(name)
	}
	return nil
}

// Column describes a table column for CreateTable.
type Column struct {
	Name string
	Type string // INT, FLOAT, TEXT, TIME
}

// CreateIndex builds a hash ("hash") or red-black tree ("rbtree") index.
func (db *DB) CreateIndex(table, column, kind string) error {
	if err := db.writable("create index"); err != nil {
		return err
	}
	tbl, ok := db.txns.Store.Get(table)
	if !ok {
		return fmt.Errorf("strip: table %q does not exist", table)
	}
	var k index.Kind
	switch kind {
	case "hash", "":
		k = index.Hash
	case "rbtree", "tree":
		k = index.RedBlack
	default:
		return fmt.Errorf("strip: unknown index kind %q", kind)
	}
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	if err := tbl.CreateIndex(column, k); err != nil {
		return err
	}
	if db.wal != nil {
		return db.wal.LogCreateIndex(table, column, k)
	}
	return nil
}

// ErrNoWAL is returned by durability operations on an engine opened without
// a DataDir.
var ErrNoWAL = errors.New("strip: engine has no DataDir (durability disabled)")

// Checkpoint serializes the catalog and every standard table to a snapshot
// file and truncates the write-ahead log. It quiesces writers by taking a
// shared lock on every table inside a fresh transaction, so it is
// transaction-consistent; a deadlock with a concurrent writer surfaces as an
// error and the checkpoint can be retried.
func (db *DB) Checkpoint() error {
	if db.wal == nil {
		return ErrNoWAL
	}
	// A replica's log is managed by the replay loop (and resync); a local
	// checkpoint would race it and desynchronize the applied-LSN horizon.
	if err := db.writable("checkpoint"); err != nil {
		return err
	}
	db.ddlMu.Lock()
	defer db.ddlMu.Unlock()
	tx := db.Begin()
	defer tx.Commit() //nolint:errcheck // read-only: commit cannot add redo records
	return db.wal.Checkpoint(tx, db.txns.Catalog, db.txns.Store)
}

// WalInfo is a point-in-time view of the durability subsystem.
type WalInfo struct {
	// Dir is the data directory.
	Dir string
	// LogBytes is the current write-ahead log size.
	LogBytes int64
	// NextLSN is the LSN the next log record will carry.
	NextLSN uint64
	// Appends, Fsyncs, and Checkpoints count lifetime log activity.
	Appends     int64
	Fsyncs      int64
	Checkpoints int64
	// GroupBatch summarizes group-commit batch sizes (commits per fsync).
	GroupBatch HistogramSnapshot
	// Lingers counts the times the group committer held a batch open for a
	// commit it expected, LingersFutile those that gathered nobody;
	// LingerMicros summarizes how long they lasted, and ExpectedCohort is
	// how many commits it expects the next batch to hold.
	Lingers        int64
	LingersFutile  int64
	LingerMicros   HistogramSnapshot
	ExpectedCohort int64
	// FsyncMicros summarizes fsync latency.
	FsyncMicros HistogramSnapshot
	// Recovery describes what Open restored from the directory.
	Recovery RecoveryStats
}

// WalInfo reports write-ahead log state; ok is false when the engine has no
// DataDir.
func (db *DB) WalInfo() (info WalInfo, ok bool) {
	if db.wal == nil {
		return WalInfo{}, false
	}
	return WalInfo{
		Dir:            db.wal.Dir(),
		LogBytes:       db.wal.Size(),
		NextLSN:        db.wal.NextLSN(),
		Appends:        db.obs.Counter(obs.MWalAppends).Load(),
		Fsyncs:         db.obs.Counter(obs.MWalFsyncs).Load(),
		Checkpoints:    db.obs.Counter(obs.MWalCheckpoints).Load(),
		GroupBatch:     db.obs.Histogram(obs.MWalGroupBatch).Snapshot(),
		Lingers:        db.obs.Counter(obs.MWalLingers).Load(),
		LingersFutile:  db.obs.Counter(obs.MWalLingersFutile).Load(),
		LingerMicros:   db.obs.Histogram(obs.MWalLingerMicros).Snapshot(),
		ExpectedCohort: db.obs.Gauge(obs.MWalExpectedCohort).Load(),
		FsyncMicros:    db.obs.Histogram(obs.MWalFsyncMicros).Snapshot(),
		Recovery:       db.wal.LastRecovery(),
	}, true
}

// LastRecovery reports what Open recovered from the DataDir (zero value for
// in-memory engines).
func (db *DB) LastRecovery() RecoveryStats {
	if db.wal == nil {
		return RecoveryStats{}
	}
	return db.wal.LastRecovery()
}

// Insert adds one row in its own transaction.
func (db *DB) Insert(table string, vals ...Value) error {
	if db.closing.Load() {
		return fmt.Errorf("strip: insert: %w", ErrShuttingDown)
	}
	if err := db.writable("insert"); err != nil {
		return err
	}
	tx := db.Begin()
	if _, err := tx.Insert(table, vals); err != nil {
		tx.Abort() //nolint:errcheck
		return err
	}
	return tx.Commit()
}

// Query runs a select in its own read-only transaction — lock-free against
// a consistent snapshot — and materializes the rows.
func (db *DB) Query(q *Select) ([][]Value, []string, error) {
	tx := db.BeginReadOnly()
	defer tx.Commit() //nolint:errcheck
	var rows query.RowSlice
	if err := q.RunTo(tx, query.TxnResolver{}, nil, &rows); err != nil {
		return nil, nil, err
	}
	return rows.Rows(), rows.Cols, nil
}

// Stats returns a user function's rule-activity counters.
func (db *DB) Stats(function string) ActionStats { return db.engine.Stats(function) }

// RuleHealth reports each rule function's circuit-breaker state (closed,
// open, half-open), consecutive failures, quarantine count, and dropped
// firings, sorted by function name.
func (db *DB) RuleHealth() []RuleHealth { return db.engine.RuleHealth() }

// ResetStats zeroes rule-activity counters.
func (db *DB) ResetStats() { db.engine.ResetStats() }

// Meter returns total charged virtual CPU microseconds.
func (db *DB) Meter() float64 { return db.meter.Micros() }

// Charge adds virtual CPU to the engine meter (workload drivers use this to
// account for work outside the engine, e.g. feed handling).
func (db *DB) Charge(micros float64) { db.meter.Charge(micros) }

// ResetMeter zeroes the virtual CPU meter.
func (db *DB) ResetMeter() { db.meter.Reset() }

// Model returns the cost model in effect.
func (db *DB) Model() CostModel { return db.model }

// Now returns the engine time in microseconds.
func (db *DB) Now() int64 { return db.clk.Now() }

// AdvanceTo moves the virtual clock (virtual mode only).
func (db *DB) AdvanceTo(micros int64) {
	if db.vclk == nil {
		panic("strip: AdvanceTo on a real-clock engine")
	}
	db.vclk.AdvanceTo(micros)
}

// RunReady executes every task that is ready at the current engine time
// (virtual mode driver step). It returns the number of tasks run.
func (db *DB) RunReady() int {
	n := 0
	for db.sched.Step() != nil {
		n++
	}
	return n
}

// NextTaskTime reports the next scheduler event time, if any.
func (db *DB) NextTaskTime() (int64, bool) { return db.sched.NextEventTime() }

// PendingTasks reports (delayed, ready) queue sizes.
func (db *DB) PendingTasks() (int, int) { return db.sched.Pending() }

// WaitIdle returns when the scheduler is idle — no task delayed, ready or
// still running (test/demo helper). In virtual mode it is the driver: it
// runs what is ready and jumps the clock to the next release.
func (db *DB) WaitIdle() {
	for !db.sched.Idle() {
		if db.live {
			// The worker pool is draining; yield.
			liveYield()
			continue
		}
		if db.RunReady() == 0 {
			when, ok := db.sched.NextEventTime()
			if !ok {
				return
			}
			db.vclk.AdvanceTo(when)
		}
	}
}

// Engine exposes the rule engine for advanced integration (benchmarks).
func (db *DB) Engine() *core.Engine { return db.engine }

// Txns exposes the transaction manager for advanced integration.
func (db *DB) Txns() *txn.Manager { return db.txns }

// Scheduler exposes the task scheduler for advanced integration.
func (db *DB) Scheduler() *sched.Scheduler { return db.sched }

// SchedStats returns scheduler counters.
func (db *DB) SchedStats() sched.Stats { return db.sched.Stats() }

// LockStats returns lock-manager counters (waits, deadlocks, detector runs,
// record-granularity acquires).
func (db *DB) LockStats() lock.Stats { return db.locks.Stats() }

// MvccStats is a point-in-time view of the MVCC snapshot-read subsystem.
type MvccStats struct {
	// LastVisibleLSN is the newest commit whose version stamps are
	// published; OldestSnapshot is the GC horizon (oldest active snapshot,
	// or LastVisibleLSN when none is out).
	LastVisibleLSN uint64
	OldestSnapshot uint64
	// Snapshots counts snapshots acquired; ReadOnlyTxns counts
	// BeginReadOnly transactions; SnapshotScans/SnapshotProbes count
	// lock-free read operations.
	Snapshots      int64
	ReadOnlyTxns   int64
	SnapshotScans  int64
	SnapshotProbes int64
	// GCRuns/GCDropped count version-GC sweeps and versions reclaimed;
	// VersionsRetained is the current retained-version count (live sweep).
	GCRuns           int64
	GCDropped        int64
	VersionsRetained int64
}

// MvccStats reports MVCC activity: snapshot LSNs, lock-free read counts,
// and version garbage-collection totals.
func (db *DB) MvccStats() MvccStats {
	var retained int64
	for _, tbl := range db.txns.Store.Tables() {
		retained += tbl.VersionStats()
	}
	return MvccStats{
		LastVisibleLSN:   db.txns.LastVisible(),
		OldestSnapshot:   db.txns.OldestSnapshot(),
		Snapshots:        db.obs.Counter(obs.MMvccSnapshots).Load(),
		ReadOnlyTxns:     db.obs.Counter(obs.MTxnReadOnly).Load(),
		SnapshotScans:    db.obs.Counter(obs.MMvccSnapshotScans).Load(),
		SnapshotProbes:   db.obs.Counter(obs.MMvccSnapshotProbes).Load(),
		GCRuns:           db.obs.Counter(obs.MMvccGCRuns).Load(),
		GCDropped:        db.obs.Counter(obs.MMvccGCDropped).Load(),
		VersionsRetained: retained,
	}
}

// RegisterScalarFunc installs a scalar function callable from queries
// (e.g. the Black-Scholes pricing function f_BS).
func RegisterScalarFunc(name string, fn func(args []Value) (Value, error)) {
	query.RegisterFunc(name, fn)
}
