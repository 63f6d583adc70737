// Package lock implements STRIP's lock manager.
//
// The manager grants multi-granularity locks (paper §6.2, Figure 15) over a
// two-level hierarchy: table-level intention modes (IS/IX) cover
// record-level S/X locks, so transactions touching disjoint rows of the same
// table proceed in parallel while whole-table readers and writers (S/X)
// still exclude conflicting row work. The transaction layer names a
// lockable through AcquireTable or AcquireRecord; both become a comparable
// value key, so an acquire boxes nothing. Acquire takes the same names as
// values: a table name string or a RecordID.
//
// The lock table is hash-partitioned into power-of-two shards, each with its
// own mutex and FIFO wait queues, so uncontended acquires on different
// resources never serialize on a global mutex. Incompatible requests park
// the requesting task in the shard's blocked queue until granted. Each
// transaction's granted locks are listed in one footprint, so ReleaseAll
// visits only the shards that hold them.
//
// Deadlocks are broken by aborting the requester with ErrDeadlock. Because
// a single shard no longer sees the whole wait-for graph, detection takes a
// stop-the-world snapshot: a detector run locks every shard in index order,
// assembles the cross-shard wait-for graph, and searches for a cycle through
// the requester. Detection runs when a request first conflicts, and again on
// a wait timeout as a fallback for races where the conflicting edge appears
// after the on-conflict check.
package lock

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/stripdb/strip/internal/fault"
	"github.com/stripdb/strip/internal/obs"
)

// Mode is a lock mode in the multi-granularity lattice.
type Mode uint8

// Lock modes. IntentShared/IntentExclusive are table-level intents declaring
// record-level S/X locks underneath; SharedIntentExclusive (SIX) is a full
// table read combined with intent to write records.
const (
	IntentShared          Mode = iota // IS
	IntentExclusive                   // IX
	Shared                            // S
	SharedIntentExclusive             // SIX
	Exclusive                         // X
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case IntentShared:
		return "IS"
	case IntentExclusive:
		return "IX"
	case Shared:
		return "S"
	case SharedIntentExclusive:
		return "SIX"
	default:
		return "X"
	}
}

// compat is the standard multi-granularity compatibility matrix.
var compat = [5][5]bool{
	IntentShared:          {IntentShared: true, IntentExclusive: true, Shared: true, SharedIntentExclusive: true},
	IntentExclusive:       {IntentShared: true, IntentExclusive: true},
	Shared:                {IntentShared: true, Shared: true},
	SharedIntentExclusive: {IntentShared: true},
	Exclusive:             {},
}

// Compatible reports whether modes a and b may be held simultaneously by
// different transactions.
func Compatible(a, b Mode) bool { return compat[a][b] }

// covers[a][b] reports whether holding a already grants everything b would.
var covers = [5][5]bool{
	IntentShared:          {IntentShared: true},
	IntentExclusive:       {IntentShared: true, IntentExclusive: true},
	Shared:                {IntentShared: true, Shared: true},
	SharedIntentExclusive: {IntentShared: true, IntentExclusive: true, Shared: true, SharedIntentExclusive: true},
	Exclusive:             {IntentShared: true, IntentExclusive: true, Shared: true, SharedIntentExclusive: true, Exclusive: true},
}

// Covers reports whether holding mode a makes a request for mode b a no-op.
func Covers(a, b Mode) bool { return covers[a][b] }

// Sup returns the least mode that covers both a and b (the lattice join):
// Sup(S, IX) == SIX, Sup(anything, X) == X.
func Sup(a, b Mode) Mode {
	if Covers(a, b) {
		return a
	}
	if Covers(b, a) {
		return b
	}
	// The only incomparable pair in the lattice is {S, IX}; their join is
	// SIX (read the whole table, write individual records).
	return SharedIntentExclusive
}

// RecordID names a record-granularity lockable: one row of a table. Record
// locks are only meaningful under a table-level intent (IS/IX) held by the
// same transaction — the transaction layer enforces that ordering.
type RecordID struct {
	Table string
	ID    uint64
}

// String formats the record lockable for traces and errors.
func (r RecordID) String() string { return fmt.Sprintf("%s#%d", r.Table, r.ID) }

// key is a lockable as the lock table indexes it: a whole table, or one
// record of it.
type key struct {
	table  string
	id     uint64
	record bool
}

// keyOf converts a name Acquire or Holds accepts.
func keyOf(name any) key {
	switch n := name.(type) {
	case string:
		return key{table: n}
	case RecordID:
		return key{table: n.Table, id: n.ID, record: true}
	}
	panic(fmt.Sprintf("lock: a %T names no lockable; use a table name or a RecordID", name))
}

// String formats the lockable as the name it was acquired by.
func (k key) String() string {
	if k.record {
		return RecordID{k.table, k.id}.String()
	}
	return k.table
}

// ErrDeadlock is returned to the transaction chosen as deadlock victim.
var ErrDeadlock = errors.New("lock: deadlock detected")

// ErrWaitTimeout is returned when a wait exceeds the manager's max-wait cap
// (SetMaxWait). Like a deadlock abort it is transient — the rule engine
// retries such aborts with backoff.
var ErrWaitTimeout = errors.New("lock: wait timed out")

// Stats counts lock-manager activity. It is a view over the manager's
// registry-backed counters (see Instrument).
type Stats struct {
	Acquires       int64
	Waits          int64
	Deadlocks      int64
	Timeouts       int64 // wait-timeout fallback detector triggers
	TimeoutAborts  int64 // waits aborted with ErrWaitTimeout (SetMaxWait)
	DetectorRuns   int64
	DetectorCycles int64
	RecordAcquires int64 // acquires naming a RecordID
	// WaitTimeout is the configured park duration before the fallback
	// deadlock detector runs (SetWaitTimeout).
	WaitTimeout time.Duration
	// MaxWait is the cap past which a wait aborts with ErrWaitTimeout
	// (zero = wait forever).
	MaxWait time.Duration
}

type waiter struct {
	txn       int64
	mode      Mode // effective mode: Sup(currently held, requested)
	upgrading bool // txn already holds the resource in a weaker mode
	ready     chan struct{}
}

type holder struct {
	txn  int64
	mode Mode
}

// entry is one lockable's state. One holder is the common case, so holders
// are a slice searched linearly; a recycled entry keeps its capacity.
type entry struct {
	holders []holder
	queue   []*waiter
}

// holder returns the index of txn among e's holders, or -1.
func (e *entry) holder(txn int64) int {
	for i := range e.holders {
		if e.holders[i].txn == txn {
			return i
		}
	}
	return -1
}

// maxFree bounds each free list: released entries kept per shard, and
// footprints kept per registry partition. maxFootprint bounds the capacity
// a recycled footprint may keep.
const (
	maxFree      = 64
	maxFootprint = 256
)

// shard is one hash partition of the lock table.
type shard struct {
	mu    sync.Mutex
	locks map[key]*entry
	// waitsOn maps a blocked transaction to the resource (owned by this
	// shard) it waits for, feeding the cross-shard wait-for graph.
	waitsOn map[int64]key
	free    []*entry

	_ [16]byte // pad to a cache line: no false sharing between shards
}

// held is one footprint item: a granted lockable and the shard holding it.
type held struct {
	s *shard
	k key
}

// footprint lists the lockables one transaction has been granted, each
// once, in grant order.
type footprint struct{ held []held }

// txnShard is one partition of the transaction → footprint registry,
// hashed by transaction id.
type txnShard struct {
	mu   sync.Mutex
	fps  map[int64]*footprint
	free []*footprint

	_ [24]byte // pad to a cache line
}

// DefaultShards is the lock-table partition count used by New.
const DefaultShards = 16

// DefaultWaitTimeout is how long a waiter parks before re-running deadlock
// detection as a fallback for edges that appeared after the on-conflict
// check.
const DefaultWaitTimeout = 100 * time.Millisecond

// Manager is the lock manager. The zero value is not usable; call New or
// NewSharded.
type Manager struct {
	shards []*shard
	txns   []*txnShard
	mask   uint64

	// waitTimeout bounds each park before the fallback detector runs.
	// Settable before concurrent use (SetWaitTimeout).
	waitTimeout time.Duration
	// maxWait caps the total wait before the request aborts with
	// ErrWaitTimeout (0 = wait forever). Settable before concurrent use
	// (SetMaxWait).
	maxWait time.Duration
	// detectOnConflict runs the detector as soon as a request must wait.
	// Tests disable it to exercise the timeout fallback path.
	detectOnConflict bool

	// Registry-backed instruments (Instrument rebinds them to the engine's
	// shared registry; New starts with a private one so the manager always
	// records).
	now            func() int64 // engine clock; nil skips wait timing
	acquires       *obs.Counter
	waits          *obs.Counter
	deadlocks      *obs.Counter
	timeouts       *obs.Counter
	timeoutAborts  *obs.Counter
	detectorRuns   *obs.Counter
	detectorCycles *obs.Counter
	recordAcquires *obs.Counter
	waitHist       *obs.Histogram
	tracer         *obs.Tracer
}

// New creates a lock manager with DefaultShards partitions and a private
// metrics registry.
func New() *Manager { return NewSharded(DefaultShards) }

// NewSharded creates a lock manager with n hash partitions (rounded up to a
// power of two, minimum 1) and a private metrics registry.
func NewSharded(n int) *Manager {
	if n < 1 {
		n = 1
	}
	size := 1
	for size < n {
		size <<= 1
	}
	m := &Manager{
		shards:           make([]*shard, size),
		txns:             make([]*txnShard, size),
		mask:             uint64(size - 1),
		waitTimeout:      DefaultWaitTimeout,
		detectOnConflict: true,
	}
	for i := range m.shards {
		m.shards[i] = &shard{locks: make(map[key]*entry), waitsOn: make(map[int64]key)}
		m.txns[i] = &txnShard{fps: make(map[int64]*footprint)}
	}
	m.Instrument(obs.NewRegistry(), nil)
	return m
}

// Shards returns the partition count.
func (m *Manager) Shards() int { return len(m.shards) }

// SetWaitTimeout changes the park duration before the fallback detector
// runs. Call before the manager sees concurrent use.
func (m *Manager) SetWaitTimeout(d time.Duration) {
	if d > 0 {
		m.waitTimeout = d
	}
}

// SetMaxWait caps how long a request may wait before aborting with
// ErrWaitTimeout (0 = wait forever, the default). A cap turns starvation
// and undetected cross-resource stalls into transient aborts the rule
// engine can retry. Call before the manager sees concurrent use.
func (m *Manager) SetMaxWait(d time.Duration) {
	if d >= 0 {
		m.maxWait = d
	}
}

// Instrument rebinds the manager's counters, wait histogram, and tracer to
// reg, timing lock waits with now (which may be nil to skip timing). Call
// before the manager sees concurrent use.
func (m *Manager) Instrument(reg *obs.Registry, now func() int64) {
	m.now = now
	m.acquires = reg.Counter(obs.MLockAcquires)
	m.waits = reg.Counter(obs.MLockWaits)
	m.deadlocks = reg.Counter(obs.MLockDeadlocks)
	m.timeouts = reg.Counter(obs.MLockTimeouts)
	m.timeoutAborts = reg.Counter(obs.MLockTimeoutAborts)
	m.detectorRuns = reg.Counter(obs.MLockDetectorRuns)
	m.detectorCycles = reg.Counter(obs.MLockDetectorCycles)
	m.recordAcquires = reg.Counter(obs.MLockRecordAcquires)
	m.waitHist = reg.Histogram(obs.MLockWaitMicros)
	m.tracer = reg.Tracer()
	reg.Gauge(obs.MLockShards).Set(int64(len(m.shards)))
}

// shardFor routes a lockable to its partition by FNV-1a hash of the table
// name and, for a record, its id.
func (m *Manager) shardFor(k key) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(k.table); i++ {
		h ^= uint64(k.table[i])
		h *= prime64
	}
	if k.record {
		v := k.id
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	return m.shards[h&m.mask]
}

// Acquire obtains the lock `name` — a table name string or a RecordID — in
// `mode` for transaction txn, as AcquireTable or AcquireRecord does.
func (m *Manager) Acquire(txn int64, name any, mode Mode) error {
	return m.acquire(txn, keyOf(name), mode)
}

// AcquireTable obtains a table-level lock for txn, blocking until granted.
// Re-acquiring a covered lock is a no-op; acquiring a stronger or
// incomparable mode while holding a weaker one upgrades to the join of the
// two (S + IX = SIX, anything + X = X). Returns ErrDeadlock if granting
// would deadlock (the requester is the victim) or ErrWaitTimeout past the
// max-wait cap.
func (m *Manager) AcquireTable(txn int64, table string, mode Mode) error {
	return m.acquire(txn, key{table: table}, mode)
}

// AcquireRecord obtains the lock on record id of table for txn, as
// AcquireTable does for a table.
func (m *Manager) AcquireRecord(txn int64, table string, id uint64, mode Mode) error {
	return m.acquire(txn, key{table: table, id: id, record: true}, mode)
}

func (m *Manager) acquire(txn int64, k key, mode Mode) error {
	m.acquires.Inc()
	if k.record {
		m.recordAcquires.Inc()
	}
	if fault.Armed() {
		// Chaos hooks: widen the conflict window, or abort as if the
		// detector had victimized this request before it ever parked.
		fault.Stall(fault.LockAcquireDelay)
		if injected := fault.ErrorAt(fault.LockForceDeadlock); injected != nil {
			m.deadlocks.Inc()
			return fmt.Errorf("%w (txn %d on %v, injected)", ErrDeadlock, txn, k)
		}
	}
	s := m.shardFor(k)
	s.mu.Lock()
	e := s.locks[k]
	if e == nil {
		if n := len(s.free); n > 0 {
			e, s.free = s.free[n-1], s.free[:n-1]
		} else {
			e = &entry{}
		}
		s.locks[k] = e
	}
	eff := mode
	i := e.holder(txn)
	holding := i >= 0
	if holding {
		if Covers(e.holders[i].mode, mode) {
			s.mu.Unlock()
			return nil // already sufficient
		}
		eff = Sup(e.holders[i].mode, mode)
	}
	// FIFO fairness: a request may not jump earlier waiters, except an
	// upgrade, which would otherwise queue behind requests its own hold
	// blocks.
	if (holding || len(e.queue) == 0) && compatibleWithHolders(e, txn, eff) {
		e.grant(txn, eff)
		s.mu.Unlock()
	} else {
		w := &waiter{txn: txn, mode: eff, upgrading: holding, ready: make(chan struct{})}
		e.queue = append(e.queue, w)
		s.waitsOn[txn] = k
		s.mu.Unlock()
		if err := m.wait(txn, k, w); err != nil {
			return err
		}
	}
	if !holding {
		m.hold(txn, s, k)
	}
	return nil
}

// wait parks txn's queued request w on k until it is granted (nil), chosen
// as a deadlock victim, or past the max-wait cap.
func (m *Manager) wait(txn int64, k key, w *waiter) error {
	m.waits.Inc()
	// On-conflict deadlock check: snapshot the cross-shard wait-for graph
	// now that our edge is published. If we were granted in the window
	// between unlock and snapshot, detect sees no wait and reports false.
	if m.detectOnConflict && m.detect(txn) {
		return m.victim(txn, k)
	}

	waitFrom := m.clockNow()
	waitStart := time.Now()
	timer := time.NewTimer(m.waitTimeout)
	defer timer.Stop()
	for {
		select {
		case <-w.ready:
			waited := m.clockNow() - waitFrom
			m.waitHist.Record(waited)
			if m.tracer.Enabled() {
				m.tracer.Emit(waitFrom+waited, obs.KindLockWait, k.String(), waited)
			}
			return nil
		case <-timer.C:
			// Timeout fallback: an edge may have formed after the
			// on-conflict snapshot (or on-conflict detection is off).
			m.timeouts.Inc()
			if m.detect(txn) {
				return m.victim(txn, k)
			}
			if m.maxWait > 0 && time.Since(waitStart) >= m.maxWait {
				if m.abandonWait(txn, k) {
					m.timeoutAborts.Inc()
					return fmt.Errorf("%w (txn %d on %v after %v)", ErrWaitTimeout, txn, k, m.maxWait)
				}
				// Granted while we were deciding to give up: honor it.
				m.waitHist.Record(m.clockNow() - waitFrom)
				return nil
			}
			timer.Reset(m.waitTimeout)
		}
	}
}

// hold adds a newly granted lockable to txn's footprint.
func (m *Manager) hold(txn int64, s *shard, k key) {
	r := m.txns[uint64(txn)&m.mask]
	r.mu.Lock()
	fp := r.fps[txn]
	if fp == nil {
		if n := len(r.free); n > 0 {
			fp, r.free = r.free[n-1], r.free[:n-1]
		} else {
			fp = &footprint{}
		}
		r.fps[txn] = fp
	}
	fp.held = append(fp.held, held{s, k})
	r.mu.Unlock()
}

// abandonWait withdraws txn's parked request after a max-wait timeout. It
// reports false when the request was granted first — the caller then holds
// the lock.
func (m *Manager) abandonWait(txn int64, k key) bool {
	s := m.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, waiting := s.waitsOn[txn]; !waiting {
		return false
	}
	s.withdraw(txn, k)
	return true
}

// withdraw removes txn's parked request on k. Its departure can unblock
// requests queued behind it, so the queue is promoted.
func (s *shard) withdraw(txn int64, k key) {
	e := s.locks[k]
	for i, w := range e.queue {
		if w.txn == txn {
			e.queue = append(e.queue[:i:i], e.queue[i+1:]...)
			break
		}
	}
	delete(s.waitsOn, txn)
	s.promote(e)
	s.retire(k, e)
}

// ActiveLocks counts locks currently held across all shards (sum over
// transactions of distinct resources held). Chaos tests assert it returns
// to zero once every transaction has finished: no abort path may leak a
// grant.
func (m *Manager) ActiveLocks() int {
	total := 0
	for _, s := range m.shards {
		s.mu.Lock()
		for _, e := range s.locks {
			total += len(e.holders)
		}
		s.mu.Unlock()
	}
	return total
}

// victim finalizes a deadlock abort for the requester: detect has already
// removed its waiter and promoted the queue under the shard locks.
func (m *Manager) victim(txn int64, k key) error {
	m.deadlocks.Inc()
	if m.tracer.Enabled() {
		m.tracer.Emit(m.clockNow(), obs.KindLockDeadlock, k.String(), txn)
	}
	return fmt.Errorf("%w (txn %d on %v)", ErrDeadlock, txn, k)
}

// clockNow reads the engine clock, or 0 when uninstrumented.
func (m *Manager) clockNow() int64 {
	if m.now == nil {
		return 0
	}
	return m.now()
}

// compatibleWithHolders checks mode against every holder other than txn.
func compatibleWithHolders(e *entry, txn int64, mode Mode) bool {
	for _, h := range e.holders {
		if h.txn != txn && !Compatible(mode, h.mode) {
			return false
		}
	}
	return true
}

func (e *entry) grant(txn int64, mode Mode) {
	if i := e.holder(txn); i < 0 {
		e.holders = append(e.holders, holder{txn, mode})
	} else {
		e.holders[i].mode = Sup(e.holders[i].mode, mode)
	}
}

// retire drops k's entry once nothing holds or waits for it, keeping it for
// reuse while the shard's free list has room.
func (s *shard) retire(k key, e *entry) {
	if len(e.holders) > 0 || len(e.queue) > 0 {
		return
	}
	delete(s.locks, k)
	if len(s.free) < maxFree {
		e.queue = nil // drop the parked waiters its backing array still points to
		s.free = append(s.free, e)
	}
}

// lockAll acquires every shard mutex in index order (detector snapshot).
func (m *Manager) lockAll() {
	for _, s := range m.shards {
		s.mu.Lock()
	}
}

func (m *Manager) unlockAll() {
	for _, s := range m.shards {
		s.mu.Unlock()
	}
}

// detect takes a stop-the-world snapshot of the cross-shard wait-for graph
// and reports whether txn is on a cycle. If so, txn is the victim: its
// waiter is removed from the queue (waking anyone it was blocking) before
// the shards unlock, so the caller only needs to surface ErrDeadlock.
//
// Edges: a waiter waits for (1) every current holder of its resource other
// than itself, and (2) — for non-upgrading requests, which queue FIFO —
// every incompatible request queued ahead of it. Upgrading requests bypass
// the queue, so they get no queue edges; including them would manufacture
// false cycles between an upgrader and an unrelated earlier waiter.
func (m *Manager) detect(txn int64) bool {
	m.detectorRuns.Inc()
	m.lockAll()
	defer m.unlockAll()

	// Locate txn's wait; if it was granted before the snapshot, there is
	// nothing to detect.
	var ws *shard
	var waitKey key
	for _, s := range m.shards {
		if k, ok := s.waitsOn[txn]; ok {
			ws, waitKey = s, k
			break
		}
	}
	if ws == nil {
		return false
	}

	edges := make(map[int64][]int64)
	for _, s := range m.shards {
		for wTxn, k := range s.waitsOn {
			e := s.locks[k]
			if e == nil {
				continue
			}
			var w *waiter
			idx := -1
			for i, q := range e.queue {
				if q.txn == wTxn {
					w, idx = q, i
					break
				}
			}
			if w == nil {
				continue
			}
			for _, h := range e.holders {
				if h.txn != wTxn {
					edges[wTxn] = append(edges[wTxn], h.txn)
				}
			}
			if !w.upgrading {
				for i := 0; i < idx; i++ {
					q := e.queue[i]
					if q.txn != wTxn && !Compatible(w.mode, q.mode) {
						edges[wTxn] = append(edges[wTxn], q.txn)
					}
				}
			}
		}
	}

	seen := make(map[int64]bool)
	var onCycle func(t int64) bool
	onCycle = func(t int64) bool {
		for _, next := range edges[t] {
			if next == txn {
				return true
			}
			if !seen[next] {
				seen[next] = true
				if onCycle(next) {
					return true
				}
			}
		}
		return false
	}
	if !onCycle(txn) {
		return false
	}

	// Victimize the requester: unpark it by removing its queue entry.
	m.detectorCycles.Inc()
	ws.withdraw(txn, waitKey)
	return true
}

// promote re-examines the wait queue after the holder set shrinks (or a
// queued request disappears). Upgrade requests are granted first regardless
// of queue position — the holder they piggyback on cannot progress behind
// them, and granting a queued non-upgrade X ahead of a parked upgrade would
// deadlock against the upgrader's retained S. Then non-upgrade requests are
// granted in FIFO order while they remain compatible. The scan repeats after
// any grant so a granted upgrade's release-path effects (none today, but
// cheap insurance) and freshly unblocked heads are all observed; the audit
// for the old single-pass version found a compatible waiter could stay
// parked forever behind a granted upgrade.
func (s *shard) promote(e *entry) {
	for {
		granted := false
		// Pass 1: upgraders anywhere in the queue.
		for i := 0; i < len(e.queue); i++ {
			w := e.queue[i]
			if e.holder(w.txn) < 0 {
				continue
			}
			if compatibleWithHolders(e, w.txn, w.mode) {
				e.queue = append(e.queue[:i:i], e.queue[i+1:]...)
				delete(s.waitsOn, w.txn)
				e.grant(w.txn, w.mode)
				close(w.ready)
				granted = true
				i--
			}
		}
		// Pass 2: FIFO grants from the head.
		for len(e.queue) > 0 {
			w := e.queue[0]
			if !compatibleWithHolders(e, w.txn, w.mode) {
				break
			}
			e.queue = e.queue[1:]
			delete(s.waitsOn, w.txn)
			e.grant(w.txn, w.mode)
			close(w.ready)
			granted = true
		}
		if !granted {
			return
		}
	}
}

// ReleaseAll drops every lock txn holds (commit or abort), visiting only
// the shards its footprint names.
func (m *Manager) ReleaseAll(txn int64) {
	r := m.txns[uint64(txn)&m.mask]
	r.mu.Lock()
	fp := r.fps[txn]
	delete(r.fps, txn)
	r.mu.Unlock()
	if fp == nil {
		return
	}
	for _, h := range fp.held {
		h.s.mu.Lock()
		if e := h.s.locks[h.k]; e != nil {
			if i := e.holder(txn); i >= 0 {
				last := len(e.holders) - 1
				e.holders[i] = e.holders[last]
				e.holders = e.holders[:last]
			}
			h.s.promote(e)
			h.s.retire(h.k, e)
		}
		h.s.mu.Unlock()
	}
	if cap(fp.held) > maxFootprint {
		return
	}
	fp.held = fp.held[:0]
	r.mu.Lock()
	if len(r.free) < maxFree {
		r.free = append(r.free, fp)
	}
	r.mu.Unlock()
}

// Holds reports the mode txn holds on name, if any.
func (m *Manager) Holds(txn int64, name any) (Mode, bool) {
	k := keyOf(name)
	s := m.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.locks[k]; e != nil {
		if i := e.holder(txn); i >= 0 {
			return e.holders[i].mode, true
		}
	}
	return 0, false
}

// Stats returns a snapshot of counters. The counters are atomics, so the
// snapshot path takes no locks and is race-clean even while transactions
// are acquiring and releasing.
func (m *Manager) Stats() Stats {
	return Stats{
		Acquires:       m.acquires.Load(),
		Waits:          m.waits.Load(),
		Deadlocks:      m.deadlocks.Load(),
		Timeouts:       m.timeouts.Load(),
		TimeoutAborts:  m.timeoutAborts.Load(),
		DetectorRuns:   m.detectorRuns.Load(),
		DetectorCycles: m.detectorCycles.Load(),
		RecordAcquires: m.recordAcquires.Load(),
		WaitTimeout:    m.waitTimeout,
		MaxWait:        m.maxWait,
	}
}
