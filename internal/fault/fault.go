// Package fault is a seedable, deterministic fault-injection registry for
// chaos testing. It generalizes the write-path tricks of wal.FaultFile into
// named injection points spread across the engine: lock-acquire delays,
// forced deadlock victims, storage allocation failures, scheduler worker
// stalls, action panics, and WAL fsync failures.
//
// The registry is package-global and disabled by default. Every call site
// guards with Armed(), a single atomic load, so production paths pay nothing
// when no fault is enabled. Injection decisions are driven either by a
// deterministic schedule (fire every Nth hit, fire once after K hits) or by
// a seeded PRNG (fire with probability P) — re-running a single-threaded
// test with the same seed replays the same decisions; concurrent tests are
// seeded but interleaving-dependent.
package fault

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Point names an injection site. Each constant is referenced from exactly
// one place in the engine.
type Point string

// Injection points.
const (
	// LockAcquireDelay stalls lock.Manager.Acquire before the fast path,
	// widening conflict windows (Spec.Delay).
	LockAcquireDelay Point = "lock.acquire_delay"
	// LockForceDeadlock aborts a lock acquire with ErrDeadlock as if the
	// detector had chosen the requester as victim.
	LockForceDeadlock Point = "lock.force_deadlock"
	// StorageAllocFail fails record allocation in Table.insertReserved.
	StorageAllocFail Point = "storage.alloc_fail"
	// SchedWorkerStall stalls a scheduler worker between dequeue and
	// execution (Spec.Delay).
	SchedWorkerStall Point = "sched.worker_stall"
	// ActionPanic panics inside a rule action's user function.
	ActionPanic Point = "core.action_panic"
	// WalSyncFail fails one WAL fsync. The injected failure is transient: a
	// group-commit batch rolls back (truncate), a replica's cadence sync
	// keeps its bytes for the next one, and later syncs proceed — unlike a
	// real fsync error, which permanently fails the log.
	WalSyncFail Point = "wal.sync_fail"
	// IndexCorruptRow makes an index probe return a wrong row: storage's
	// index lookups swap a random other record into the result. Probe
	// self-validation detects the mismatch, drops the bad row, and counts
	// it (storage.index_corruptions).
	IndexCorruptRow Point = "storage.index_corrupt"
	// ClockSkew offsets an engine's replication wall-clock reads by
	// Spec.Delay (arm with Every: 1 for a constant offset), simulating
	// cross-node clock skew in lag_ms measurement.
	ClockSkew Point = "repl.clock_skew"
)

// ErrInjected is the default error delivered by error-kind points.
var ErrInjected = errors.New("fault: injected failure")

// Spec configures one injection point. Schedule fields compose: a hit fires
// only if it is past After, within Limit, on an Every boundary, and passes
// the Prob coin flip (unset fields don't constrain).
type Spec struct {
	// Prob fires with this probability per hit (0 or 1 = unconditional
	// modulo the schedule fields).
	Prob float64
	// Every fires on every Nth hit (1st, N+1th, ...) when > 0.
	Every int64
	// After skips the first N hits when > 0.
	After int64
	// Limit stops firing after N fires when > 0.
	Limit int64
	// Delay is how long Stall sleeps when the point fires.
	Delay time.Duration
	// Err overrides ErrInjected for ErrorAt.
	Err error
}

type pointState struct {
	spec  Spec
	hits  int64
	fires int64
}

// Injector is a set of armed points. The package-level API delegates to a
// process-wide default injector; tests that need isolation can construct
// their own.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	points map[Point]*pointState
	armed  atomic.Bool
}

// NewInjector returns an empty injector seeded with seed.
func NewInjector(seed int64) *Injector {
	return &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		points: make(map[Point]*pointState),
	}
}

// Seed reseeds the probability PRNG (call before Enable for replayable runs).
func (in *Injector) Seed(seed int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.rng = rand.New(rand.NewSource(seed))
}

// Enable arms a point. Re-enabling replaces the spec and zeroes the
// counters.
func (in *Injector) Enable(p Point, s Spec) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.points[p] = &pointState{spec: s}
	in.armed.Store(true)
}

// Disable disarms one point.
func (in *Injector) Disable(p Point) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.points, p)
	in.armed.Store(len(in.points) > 0)
}

// Reset disarms every point and reseeds to 1.
func (in *Injector) Reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.points = make(map[Point]*pointState)
	in.rng = rand.New(rand.NewSource(1))
	in.armed.Store(false)
}

// Armed reports whether any point is enabled — the call-site fast path.
func (in *Injector) Armed() bool { return in.armed.Load() }

// Should records a hit at p and reports whether the point fires.
func (in *Injector) Should(p Point) bool {
	if !in.armed.Load() {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.points[p]
	if st == nil {
		return false
	}
	st.hits++
	if st.spec.After > 0 && st.hits <= st.spec.After {
		return false
	}
	if st.spec.Limit > 0 && st.fires >= st.spec.Limit {
		return false
	}
	if st.spec.Every > 0 {
		// Count schedule position from the end of the After window.
		n := st.hits
		if st.spec.After > 0 {
			n -= st.spec.After
		}
		if (n-1)%st.spec.Every != 0 {
			return false
		}
	}
	if st.spec.Prob > 0 && st.spec.Prob < 1 && in.rng.Float64() >= st.spec.Prob {
		return false
	}
	st.fires++
	return true
}

// Stall sleeps the point's Delay if the point fires.
func (in *Injector) Stall(p Point) {
	if !in.Should(p) {
		return
	}
	in.mu.Lock()
	d := time.Duration(0)
	if st := in.points[p]; st != nil {
		d = st.spec.Delay
	}
	in.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
}

// Skew returns the point's Delay as an additive offset when the point
// fires, 0 otherwise. Clock-skew sites add it to wall-clock reads instead
// of sleeping.
func (in *Injector) Skew(p Point) time.Duration {
	if !in.Should(p) {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if st := in.points[p]; st != nil {
		return st.spec.Delay
	}
	return 0
}

// ErrorAt returns the point's error if the point fires, nil otherwise.
func (in *Injector) ErrorAt(p Point) error {
	if !in.Should(p) {
		return nil
	}
	in.mu.Lock()
	err := error(nil)
	if st := in.points[p]; st != nil {
		err = st.spec.Err
	}
	in.mu.Unlock()
	if err == nil {
		err = ErrInjected
	}
	return err
}

// Fired reports how many times p has fired.
func (in *Injector) Fired(p Point) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	if st := in.points[p]; st != nil {
		return st.fires
	}
	return 0
}

// Hits reports how many times p has been evaluated.
func (in *Injector) Hits(p Point) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	if st := in.points[p]; st != nil {
		return st.hits
	}
	return 0
}

// std is the process-wide injector the engine's call sites consult.
var std = NewInjector(1)

// Armed reports whether any point is enabled on the default injector. Call
// sites guard injection with it: one atomic load when chaos is off.
func Armed() bool { return std.Armed() }

// Seed reseeds the default injector's PRNG.
func Seed(seed int64) { std.Seed(seed) }

// Enable arms a point on the default injector.
func Enable(p Point, s Spec) { std.Enable(p, s) }

// Disable disarms a point on the default injector.
func Disable(p Point) { std.Disable(p) }

// Reset disarms every point on the default injector.
func Reset() { std.Reset() }

// Should records a hit and reports whether the point fires.
func Should(p Point) bool { return std.Should(p) }

// Stall sleeps the point's configured delay if the point fires.
func Stall(p Point) { std.Stall(p) }

// Skew returns the point's Delay as an additive clock offset if it fires.
func Skew(p Point) time.Duration { return std.Skew(p) }

// ErrorAt returns the point's error if it fires, nil otherwise.
func ErrorAt(p Point) error { return std.ErrorAt(p) }

// Fired reports how many times p has fired.
func Fired(p Point) int64 { return std.Fired(p) }

// Hits reports how many times p has been evaluated.
func Hits(p Point) int64 { return std.Hits(p) }
