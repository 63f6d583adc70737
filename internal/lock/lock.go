// Package lock implements STRIP's lock manager.
//
// The manager grants multi-granularity locks (paper §6.2, Figure 15) over a
// two-level hierarchy: table-level intention modes (IS/IX) cover
// record-level S/X locks, so transactions touching disjoint rows of the same
// table proceed in parallel while whole-table readers and writers (S/X)
// still exclude conflicting row work. Lock names are comparable values
// supplied by the transaction layer — table names are strings, records use
// RecordID.
//
// The lock table is hash-partitioned into power-of-two shards, each with its
// own mutex and FIFO wait queues, so uncontended acquires on different
// resources never serialize on a global mutex. Incompatible requests park
// the requesting task in the shard's blocked queue until granted.
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
	"sync/atomic"
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

// ErrDeadlock is returned to the transaction chosen as deadlock victim.
var ErrDeadlock = errors.New("lock: deadlock detected")

// ErrAborted is returned to waiters cancelled via Cancel.
var ErrAborted = errors.New("lock: wait aborted")

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
	ready     chan error
}

type entry struct {
	holders map[int64]Mode
	queue   []*waiter
}

// shard is one hash partition of the lock table.
type shard struct {
	mu    sync.Mutex
	locks map[any]*entry
	// held tracks every lock a transaction holds in this shard, for
	// ReleaseAll.
	held map[int64]map[any]Mode
	// waitsOn maps a blocked transaction to the resource (owned by this
	// shard) it waits for, feeding the cross-shard wait-for graph.
	waitsOn map[int64]any
	// load counts acquires routed to this shard (contention diagnostics).
	load atomic.Int64

	_ [24]byte // pad to reduce false sharing between adjacent shards
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
		mask:             uint64(size - 1),
		waitTimeout:      DefaultWaitTimeout,
		detectOnConflict: true,
	}
	for i := range m.shards {
		m.shards[i] = &shard{
			locks:   make(map[any]*entry),
			held:    make(map[int64]map[any]Mode),
			waitsOn: make(map[int64]any),
		}
	}
	m.Instrument(obs.NewRegistry(), nil)
	return m
}

// Shards returns the partition count.
func (m *Manager) Shards() int { return len(m.shards) }

// ShardLoads returns per-shard acquire counts, for contention diagnostics.
func (m *Manager) ShardLoads() []int64 {
	out := make([]int64, len(m.shards))
	for i, s := range m.shards {
		out[i] = s.load.Load()
	}
	return out
}

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

// shardFor routes a lock name to its partition by FNV-1a hash.
func (m *Manager) shardFor(name any) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	hashString := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
	}
	switch n := name.(type) {
	case string:
		hashString(n)
	case RecordID:
		hashString(n.Table)
		v := n.ID
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	default:
		hashString(fmt.Sprint(name))
	}
	return m.shards[h&m.mask]
}

// Acquire obtains the lock `name` in `mode` for transaction txn, blocking
// until granted. Re-acquiring a covered lock is a no-op; acquiring a
// stronger or incomparable mode while holding a weaker one upgrades to the
// join of the two (S + IX = SIX, anything + X = X). Returns ErrDeadlock if
// granting would deadlock (the requester is the victim) or ErrAborted if
// cancelled.
func (m *Manager) Acquire(txn int64, name any, mode Mode) error {
	m.acquires.Inc()
	if _, isRec := name.(RecordID); isRec {
		m.recordAcquires.Inc()
	}
	if fault.Armed() {
		// Chaos hooks: widen the conflict window, or abort as if the
		// detector had victimized this request before it ever parked.
		fault.Stall(fault.LockAcquireDelay)
		if injected := fault.ErrorAt(fault.LockForceDeadlock); injected != nil {
			m.deadlocks.Inc()
			return fmt.Errorf("%w (txn %d on %v, injected)", ErrDeadlock, txn, name)
		}
	}
	s := m.shardFor(name)
	s.load.Add(1)
	s.mu.Lock()
	e := s.locks[name]
	if e == nil {
		e = &entry{holders: make(map[int64]Mode)}
		s.locks[name] = e
	}
	eff := mode
	cur, holding := e.holders[txn]
	if holding {
		if Covers(cur, mode) {
			s.mu.Unlock()
			return nil // already sufficient
		}
		eff = Sup(cur, mode)
	}
	if grantable(e, txn, eff) {
		s.grant(e, txn, name, eff)
		s.mu.Unlock()
		return nil
	}
	w := &waiter{txn: txn, mode: eff, upgrading: holding, ready: make(chan error, 1)}
	e.queue = append(e.queue, w)
	s.waitsOn[txn] = name
	s.mu.Unlock()
	m.waits.Inc()

	// On-conflict deadlock check: snapshot the cross-shard wait-for graph
	// now that our edge is published. If we were granted in the window
	// between unlock and snapshot, detect sees no wait and reports false.
	if m.detectOnConflict && m.detect(txn) {
		return m.victim(txn, name)
	}

	waitFrom := m.clockNow()
	waitStart := time.Now()
	timer := time.NewTimer(m.waitTimeout)
	defer timer.Stop()
	for {
		select {
		case err := <-w.ready:
			waited := m.clockNow() - waitFrom
			m.waitHist.Record(waited)
			if m.tracer.Enabled() {
				m.tracer.Emit(waitFrom+waited, obs.KindLockWait, fmt.Sprint(name), waited)
			}
			return err
		case <-timer.C:
			// Timeout fallback: an edge may have formed after the
			// on-conflict snapshot (or on-conflict detection is off).
			m.timeouts.Inc()
			if m.detect(txn) {
				return m.victim(txn, name)
			}
			if m.maxWait > 0 && time.Since(waitStart) >= m.maxWait {
				if m.abandonWait(txn, name, w) {
					m.timeoutAborts.Inc()
					return fmt.Errorf("%w (txn %d on %v after %v)", ErrWaitTimeout, txn, name, m.maxWait)
				}
				// Granted (or cancelled) while we were deciding to give up:
				// the grant is in the buffered channel — honor it.
				err := <-w.ready
				waited := m.clockNow() - waitFrom
				m.waitHist.Record(waited)
				return err
			}
			timer.Reset(m.waitTimeout)
		}
	}
}

// abandonWait withdraws txn's parked request after a max-wait timeout. It
// reports false when the request was granted or cancelled first — the
// outcome is already in w.ready and the caller must consume it instead.
func (m *Manager) abandonWait(txn int64, name any, w *waiter) bool {
	s := m.shardFor(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, waiting := s.waitsOn[txn]; !waiting {
		return false
	}
	e := s.locks[name]
	if e == nil {
		delete(s.waitsOn, txn)
		return true
	}
	for i, q := range e.queue {
		if q == w {
			e.queue = append(e.queue[:i:i], e.queue[i+1:]...)
			break
		}
	}
	delete(s.waitsOn, txn)
	// Our departure can unblock requests queued behind us.
	s.promote(e, name)
	if len(e.holders) == 0 && len(e.queue) == 0 {
		delete(s.locks, name)
	}
	return true
}

// ActiveLocks counts locks currently held across all shards (sum over
// transactions of distinct resources held). Chaos tests assert it returns
// to zero once every transaction has finished: no abort path may leak a
// grant.
func (m *Manager) ActiveLocks() int {
	total := 0
	for _, s := range m.shards {
		s.mu.Lock()
		for _, locks := range s.held {
			total += len(locks)
		}
		s.mu.Unlock()
	}
	return total
}

// victim finalizes a deadlock abort for the requester: detect has already
// removed its waiter and promoted the queue under the shard locks.
func (m *Manager) victim(txn int64, name any) error {
	m.deadlocks.Inc()
	if m.tracer.Enabled() {
		m.tracer.Emit(m.clockNow(), obs.KindLockDeadlock, fmt.Sprint(name), txn)
	}
	return fmt.Errorf("%w (txn %d on %v)", ErrDeadlock, txn, name)
}

// clockNow reads the engine clock, or 0 when uninstrumented.
func (m *Manager) clockNow() int64 {
	if m.now == nil {
		return 0
	}
	return m.now()
}

// grantable reports whether txn's request is compatible with the current
// holders and does not jump ahead of waiting requests (except upgrades,
// which must bypass the queue to avoid self-blocking).
func grantable(e *entry, txn int64, mode Mode) bool {
	_, upgrading := e.holders[txn]
	if len(e.queue) > 0 && !upgrading {
		return false // FIFO fairness: don't starve earlier waiters
	}
	return compatibleWithHolders(e, txn, mode)
}

// compatibleWithHolders checks mode against every holder other than txn.
func compatibleWithHolders(e *entry, txn int64, mode Mode) bool {
	for holder, hm := range e.holders {
		if holder == txn {
			continue
		}
		if !Compatible(mode, hm) {
			return false
		}
	}
	return true
}

func (s *shard) grant(e *entry, txn int64, name any, mode Mode) {
	if cur, ok := e.holders[txn]; !ok {
		e.holders[txn] = mode
	} else if !Covers(cur, mode) {
		e.holders[txn] = Sup(cur, mode)
	}
	locks := s.held[txn]
	if locks == nil {
		locks = make(map[any]Mode)
		s.held[txn] = locks
	}
	if cur, ok := locks[name]; !ok {
		locks[name] = mode
	} else if !Covers(cur, mode) {
		locks[name] = Sup(cur, mode)
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

	// Locate txn's wait; if it was granted (or cancelled) before the
	// snapshot, there is nothing to detect.
	var ws *shard
	var waitName any
	for _, s := range m.shards {
		if n, ok := s.waitsOn[txn]; ok {
			ws, waitName = s, n
			break
		}
	}
	if ws == nil {
		return false
	}

	edges := make(map[int64][]int64)
	for _, s := range m.shards {
		for wTxn, n := range s.waitsOn {
			e := s.locks[n]
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
			for h := range e.holders {
				if h != wTxn {
					edges[wTxn] = append(edges[wTxn], h)
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

	// Victimize the requester: unpark it by removing its queue entry. The
	// removal can unblock requests queued behind it, so promote.
	m.detectorCycles.Inc()
	e := ws.locks[waitName]
	for i, w := range e.queue {
		if w.txn == txn {
			e.queue = append(e.queue[:i:i], e.queue[i+1:]...)
			break
		}
	}
	delete(ws.waitsOn, txn)
	ws.promote(e, waitName)
	if len(e.holders) == 0 && len(e.queue) == 0 {
		delete(ws.locks, waitName)
	}
	return true
}

// Release drops one lock held by txn and wakes compatible waiters.
func (m *Manager) Release(txn int64, name any) {
	s := m.shardFor(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.releaseLocked(txn, name)
}

func (s *shard) releaseLocked(txn int64, name any) {
	e := s.locks[name]
	if e == nil {
		return
	}
	delete(e.holders, txn)
	if locks := s.held[txn]; locks != nil {
		delete(locks, name)
		if len(locks) == 0 {
			delete(s.held, txn)
		}
	}
	s.promote(e, name)
	if len(e.holders) == 0 && len(e.queue) == 0 {
		delete(s.locks, name)
	}
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
func (s *shard) promote(e *entry, name any) {
	for {
		granted := false
		// Pass 1: upgraders anywhere in the queue.
		for i := 0; i < len(e.queue); i++ {
			w := e.queue[i]
			if _, isHolder := e.holders[w.txn]; !isHolder {
				continue
			}
			if compatibleWithHolders(e, w.txn, w.mode) {
				e.queue = append(e.queue[:i:i], e.queue[i+1:]...)
				delete(s.waitsOn, w.txn)
				s.grant(e, w.txn, name, w.mode)
				w.ready <- nil
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
			s.grant(e, w.txn, name, w.mode)
			w.ready <- nil
			granted = true
		}
		if !granted {
			return
		}
	}
}

// ReleaseAll drops every lock txn holds (commit or abort).
func (m *Manager) ReleaseAll(txn int64) {
	for _, s := range m.shards {
		s.mu.Lock()
		locks := s.held[txn]
		if len(locks) > 0 {
			names := make([]any, 0, len(locks))
			for name := range locks {
				names = append(names, name)
			}
			for _, name := range names {
				s.releaseLocked(txn, name)
			}
		}
		s.mu.Unlock()
	}
}

// Cancel aborts txn's pending wait, if any, delivering ErrAborted. Removing
// the waiter can unblock requests queued behind it, so the queue is
// re-promoted.
func (m *Manager) Cancel(txn int64) {
	for _, s := range m.shards {
		s.mu.Lock()
		name, waiting := s.waitsOn[txn]
		if !waiting {
			s.mu.Unlock()
			continue
		}
		if e := s.locks[name]; e != nil {
			for i, w := range e.queue {
				if w.txn == txn {
					e.queue = append(e.queue[:i:i], e.queue[i+1:]...)
					w.ready <- ErrAborted
					break
				}
			}
			s.promote(e, name)
			if len(e.holders) == 0 && len(e.queue) == 0 {
				delete(s.locks, name)
			}
		}
		delete(s.waitsOn, txn)
		s.mu.Unlock()
		return
	}
}

// Holds reports the mode txn holds on name, if any.
func (m *Manager) Holds(txn int64, name any) (Mode, bool) {
	s := m.shardFor(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.locks[name]
	if e == nil {
		return 0, false
	}
	mode, ok := e.holders[txn]
	return mode, ok
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
