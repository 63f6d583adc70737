package lock

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestModeLattice(t *testing.T) {
	cases := []struct {
		a, b     Mode
		compat   bool
		aCoversB bool
		sup      Mode
	}{
		{IntentShared, IntentShared, true, true, IntentShared},
		{IntentShared, IntentExclusive, true, false, IntentExclusive},
		{IntentShared, Shared, true, false, Shared},
		{IntentShared, Exclusive, false, false, Exclusive},
		{IntentExclusive, IntentExclusive, true, true, IntentExclusive},
		{IntentExclusive, Shared, false, false, SharedIntentExclusive},
		{IntentExclusive, SharedIntentExclusive, false, false, SharedIntentExclusive},
		{IntentExclusive, Exclusive, false, false, Exclusive},
		{Shared, Shared, true, true, Shared},
		{Shared, SharedIntentExclusive, false, false, SharedIntentExclusive},
		{Shared, Exclusive, false, false, Exclusive},
		{SharedIntentExclusive, SharedIntentExclusive, false, true, SharedIntentExclusive},
		{SharedIntentExclusive, Exclusive, false, false, Exclusive},
		{Exclusive, Exclusive, false, true, Exclusive},
	}
	for _, c := range cases {
		if got := Compatible(c.a, c.b); got != c.compat {
			t.Errorf("Compatible(%v,%v) = %v, want %v", c.a, c.b, got, c.compat)
		}
		if got := Compatible(c.b, c.a); got != c.compat {
			t.Errorf("Compatible(%v,%v) not symmetric", c.b, c.a)
		}
		if got := Covers(c.a, c.b); got != c.aCoversB {
			t.Errorf("Covers(%v,%v) = %v, want %v", c.a, c.b, got, c.aCoversB)
		}
		if got := Sup(c.a, c.b); got != c.sup {
			t.Errorf("Sup(%v,%v) = %v, want %v", c.a, c.b, got, c.sup)
		}
		if got := Sup(c.b, c.a); got != c.sup {
			t.Errorf("Sup(%v,%v) = %v, want %v", c.b, c.a, got, c.sup)
		}
	}
}

func TestIntentModeStrings(t *testing.T) {
	want := map[Mode]string{
		IntentShared: "IS", IntentExclusive: "IX", Shared: "S",
		SharedIntentExclusive: "SIX", Exclusive: "X",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
}

// Record locks under compatible table intents do not block each other;
// a whole-table S excludes record writers via their IX intent.
func TestRecordGranularity(t *testing.T) {
	m := New()
	r1 := RecordID{Table: "t", ID: 1}
	r2 := RecordID{Table: "t", ID: 2}

	// Two writers on different records of the same table run in parallel.
	for txn, rec := range map[int64]RecordID{1: r1, 2: r2} {
		if err := m.Acquire(txn, "t", IntentExclusive); err != nil {
			t.Fatal(err)
		}
		if err := m.Acquire(txn, rec, Exclusive); err != nil {
			t.Fatalf("txn %d record lock blocked: %v", txn, err)
		}
	}
	// A third writer on an already-locked record blocks.
	if err := m.Acquire(3, "t", IntentExclusive); err != nil {
		t.Fatal(err)
	}
	recDone := make(chan error, 1)
	go func() { recDone <- m.Acquire(3, r1, Exclusive) }()
	select {
	case <-recDone:
		t.Fatal("X on a held record granted")
	case <-time.After(10 * time.Millisecond):
	}
	// A table scanner (full S) blocks on the IX intents.
	scanDone := make(chan error, 1)
	go func() { scanDone <- m.Acquire(4, "t", Shared) }()
	select {
	case <-scanDone:
		t.Fatal("table S granted while IX intents held")
	case <-time.After(10 * time.Millisecond):
	}

	m.ReleaseAll(1)
	if err := <-recDone; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	m.ReleaseAll(3)
	if err := <-scanDone; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(4)
	if st := m.Stats(); st.RecordAcquires != 3 {
		t.Errorf("RecordAcquires = %d, want 3", st.RecordAcquires)
	}
}

// Regression for the promote starvation bug: a parked upgrade request stayed
// blocked forever when the queue head was an incompatible non-upgrade
// request, because promote only scanned from the head. The upgrade must be
// granted first; the queued writer then gets the lock when the upgrader
// releases.
func TestPromoteGrantsParkedUpgradeBehindWriter(t *testing.T) {
	m := New()
	if err := m.Acquire(1, "t", Shared); err != nil { // A
		t.Fatal(err)
	}
	if err := m.Acquire(2, "t", Shared); err != nil { // B
		t.Fatal(err)
	}
	// C queues a plain X behind the two readers.
	cDone := make(chan error, 1)
	go func() { cDone <- m.Acquire(3, "t", Exclusive) }()
	waitForWaiters(t, m, 1)
	// A parks an upgrade behind C.
	aDone := make(chan error, 1)
	go func() { aDone <- m.Acquire(1, "t", Exclusive) }()
	waitForWaiters(t, m, 2)
	// B releases: A's upgrade must be granted even though C is queued ahead.
	m.ReleaseAll(2)
	select {
	case err := <-aDone:
		if err != nil {
			t.Fatalf("upgrade failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("upgrade starved behind queued writer")
	}
	select {
	case <-cDone:
		t.Fatal("writer granted while upgraded X held")
	case <-time.After(10 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-cDone; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(3)
}

// N transactions form a ring at record granularity: txn i holds record i and
// requests record i+1 mod N. The records hash across shards, so the cycle is
// only visible to the cross-shard detector. Exactly the requests that close
// a cycle abort; everyone else completes.
func TestCrossShardRecordCycle(t *testing.T) {
	for _, n := range []int{2, 3, 5, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			m := NewSharded(4)
			for i := 0; i < n; i++ {
				if err := m.Acquire(int64(i+1), "t", IntentExclusive); err != nil {
					t.Fatal(err)
				}
				if err := m.Acquire(int64(i+1), RecordID{Table: "t", ID: uint64(i)}, Exclusive); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			var deadlocks atomic.Int64
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					txn := int64(i + 1)
					next := RecordID{Table: "t", ID: uint64((i + 1) % n)}
					if err := m.Acquire(txn, next, Exclusive); err != nil {
						if !errors.Is(err, ErrDeadlock) {
							t.Errorf("txn %d: %v", txn, err)
						}
						deadlocks.Add(1)
					}
					m.ReleaseAll(txn)
				}(i)
			}
			wg.Wait() // termination is the core assertion: no txn hangs
			if d := deadlocks.Load(); d < 1 || d >= int64(n) {
				t.Errorf("deadlock victims = %d, want in [1, %d)", d, n)
			}
			if st := m.Stats(); st.DetectorCycles < 1 {
				t.Errorf("DetectorCycles = %d, want >= 1", st.DetectorCycles)
			}
		})
	}
}

// Upgrade deadlock at record granularity: both transactions hold S on the
// same record and both request X.
func TestRecordUpgradeDeadlock(t *testing.T) {
	m := New()
	rec := RecordID{Table: "t", ID: 7}
	for txn := int64(1); txn <= 2; txn++ {
		if err := m.Acquire(txn, "t", IntentShared); err != nil {
			t.Fatal(err)
		}
		if err := m.Acquire(txn, rec, Shared); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(1, rec, Exclusive) }()
	waitForWaiters(t, m, 1)
	err := m.Acquire(2, rec, Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected ErrDeadlock, got %v", err)
	}
	m.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(1)
}

// With on-conflict detection disabled, the wait-timeout fallback must still
// find and break the cycle.
func TestTimeoutFallbackDetection(t *testing.T) {
	m := New()
	m.detectOnConflict = false
	m.SetWaitTimeout(5 * time.Millisecond)
	if err := m.Acquire(1, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, "b", Exclusive); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var deadlocks atomic.Int64
	for _, req := range []struct {
		txn  int64
		name string
	}{{1, "b"}, {2, "a"}} {
		wg.Add(1)
		go func(txn int64, name string) {
			defer wg.Done()
			if err := m.Acquire(txn, name, Exclusive); err != nil {
				if !errors.Is(err, ErrDeadlock) {
					t.Errorf("txn %d: %v", txn, err)
				}
				deadlocks.Add(1)
			}
			m.ReleaseAll(txn)
		}(req.txn, req.name)
	}
	wg.Wait()
	if d := deadlocks.Load(); d != 1 {
		t.Errorf("deadlock victims = %d, want 1", d)
	}
	st := m.Stats()
	if st.Timeouts < 1 {
		t.Errorf("Timeouts = %d, want >= 1", st.Timeouts)
	}
	if st.DetectorCycles != 1 {
		t.Errorf("DetectorCycles = %d, want 1", st.DetectorCycles)
	}
}

func TestShardRouting(t *testing.T) {
	m := NewSharded(5) // rounds up to 8
	if m.Shards() != 8 {
		t.Fatalf("Shards() = %d, want 8", m.Shards())
	}
	for i := 0; i < 64; i++ {
		if err := m.Acquire(1, RecordID{Table: "t", ID: uint64(i)}, Shared); err != nil {
			t.Fatal(err)
		}
	}
	nonEmpty, total := 0, 0
	for _, s := range m.shards {
		if len(s.locks) > 0 {
			nonEmpty++
		}
		total += len(s.locks)
	}
	if total != 64 {
		t.Errorf("the shards hold %d entries, want 64", total)
	}
	if nonEmpty < 2 {
		t.Errorf("record IDs hashed to %d shards, want spread over >= 2", nonEmpty)
	}
	m.ReleaseAll(1)
	for i := 0; i < 64; i++ {
		if _, ok := m.Holds(1, RecordID{Table: "t", ID: uint64(i)}); ok {
			t.Fatalf("record %d survives ReleaseAll", i)
		}
	}
}

// Mixed-granularity stress across shards under -race: every txn takes
// intents plus record locks, some escalate to table S/X. Termination and a
// consistent counter are the assertions.
func TestShardedStress(t *testing.T) {
	m := NewSharded(4)
	const txns = 12
	const records = 8
	counters := make([]int, records) // counters[i] protected by record lock i
	var tableSum int                 // protected by table X
	var wg sync.WaitGroup
	for i := 0; i < txns; i++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for j := 0; j < 60; j++ {
				rec := RecordID{Table: "t", ID: uint64((int(id) + j) % records)}
				var err error
				switch j % 3 {
				case 0: // record write under IX
					if err = m.Acquire(id, "t", IntentExclusive); err == nil {
						if err = m.Acquire(id, rec, Exclusive); err == nil {
							counters[rec.ID]++
						}
					}
				case 1: // record read under IS
					if err = m.Acquire(id, "t", IntentShared); err == nil {
						err = m.Acquire(id, rec, Shared)
					}
				default: // escalated table write
					if err = m.Acquire(id, "t", Exclusive); err == nil {
						tableSum++
					}
				}
				if err != nil && !errors.Is(err, ErrDeadlock) {
					t.Errorf("txn %d: %v", id, err)
				}
				m.ReleaseAll(id)
			}
		}(int64(i + 1))
	}
	wg.Wait()
	_ = tableSum
}

// waitForWaiters spins until the manager has seen n lock waits.
func waitForWaiters(t *testing.T, m *Manager, n int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for m.Stats().Waits < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d waiters (have %d)", n, m.Stats().Waits)
		}
		time.Sleep(time.Millisecond)
	}
}
