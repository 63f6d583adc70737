package lock

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestLockPathAllocs holds the uncontended lock path to zero allocations
// once the shards' entry free lists and the footprint registry are warm: a
// table intent, a record lock, a covered re-acquire and ReleaseAll.
func TestLockPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m := New()
	txn := int64(0)
	path := func() {
		txn++
		id := uint64(txn % 64)
		if err := m.AcquireTable(txn, "stocks", IntentExclusive); err != nil {
			t.Fatal(err)
		}
		if err := m.AcquireRecord(txn, "stocks", id, Exclusive); err != nil {
			t.Fatal(err)
		}
		if err := m.AcquireRecord(txn, "stocks", id, Shared); err != nil { // covered by X
			t.Fatal(err)
		}
		m.ReleaseAll(txn)
	}
	for i := 0; i < 4*64; i++ { // every record and every registry partition once
		path()
	}
	if n := testing.AllocsPerRun(1000, path); n != 0 {
		t.Errorf("the uncontended lock path allocates %.2f times per transaction, want 0", n)
	}
	if n := m.ActiveLocks(); n != 0 {
		t.Errorf("ActiveLocks = %d after the last ReleaseAll", n)
	}
}

// TestLockTableDrainsAfterChurn runs rounds of seeded transactions that mix
// table and record locks, S→X upgrades, crossing lock orders (deadlock
// victims) and waits past the max-wait cap. After each round's ReleaseAlls
// the lock table must be empty, with every retired entry clean, and a fresh
// transaction must then be granted X on every lockable at once: a recycled
// entry carries no stale holder or waiter.
func TestLockTableDrainsAfterChurn(t *testing.T) {
	const (
		goroutines = 6
		rounds     = 30
		maxWait    = 10 * time.Millisecond
	)
	m := NewSharded(4)
	m.SetWaitTimeout(2 * time.Millisecond)
	m.SetMaxWait(maxWait)
	names := []any{"a", "b", "t"}
	for id := uint64(0); id < 4; id++ {
		names = append(names, RecordID{"t", id})
	}
	rngs := make([]*rand.Rand, goroutines)
	for g := range rngs {
		rngs[g] = rand.New(rand.NewSource(int64(g + 1)))
	}
	var txnID int64
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			txnID++
			wg.Add(1)
			go func(txn int64, rng *rand.Rand) {
				defer wg.Done()
				pause := func(max time.Duration) { time.Sleep(time.Duration(rng.Int63n(int64(max)))) }
				rec := RecordID{"t", uint64(rng.Intn(4))}
				var err error
				switch rng.Intn(4) {
				case 0: // record writes under IX
					if err = m.Acquire(txn, "t", IntentExclusive); err == nil {
						if err = m.Acquire(txn, rec, Exclusive); err == nil {
							pause(time.Millisecond)
							err = m.Acquire(txn, RecordID{"t", uint64(rng.Intn(4))}, Exclusive)
						}
					}
				case 1: // read, then upgrade the same record
					if err = m.Acquire(txn, "t", IntentShared); err == nil {
						if err = m.Acquire(txn, rec, Shared); err == nil {
							pause(time.Millisecond)
							if err = m.Acquire(txn, "t", IntentExclusive); err == nil {
								err = m.Acquire(txn, rec, Exclusive)
							}
						}
					}
				case 2: // two tables, in either order
					first, second := "a", "b"
					if rng.Intn(2) == 0 {
						first, second = second, first
					}
					if err = m.Acquire(txn, first, Exclusive); err == nil {
						pause(time.Millisecond)
						err = m.Acquire(txn, second, Exclusive)
					}
				default: // a table scan, sometimes held past the others' cap
					if err = m.Acquire(txn, "t", Shared); err == nil && rng.Intn(3) == 0 {
						time.Sleep(2 * maxWait)
					}
				}
				if err != nil && !errors.Is(err, ErrDeadlock) && !errors.Is(err, ErrWaitTimeout) {
					t.Errorf("txn %d: %v", txn, err)
				}
				m.ReleaseAll(txn)
				for _, name := range names {
					if mode, ok := m.Holds(txn, name); ok {
						t.Errorf("txn %d still holds %v in %v after ReleaseAll", txn, name, mode)
					}
				}
			}(txnID, rngs[g])
		}
		wg.Wait()
		checkDrained(t, m)
		if t.Failed() {
			t.Fatalf("round %d left the lock table dirty", round)
		}
	}
	st := m.Stats()
	t.Logf("%d acquires, %d waits, %d deadlock victims, %d max-wait aborts", st.Acquires, st.Waits, st.Deadlocks, st.TimeoutAborts)
	if st.Deadlocks == 0 || st.TimeoutAborts == 0 {
		t.Errorf("the churn produced %d deadlock victims and %d max-wait aborts, want both > 0", st.Deadlocks, st.TimeoutAborts)
	}

	txnID++
	waits := m.Stats().Waits
	for _, name := range names {
		if err := m.Acquire(txnID, name, Exclusive); err != nil {
			t.Fatalf("a fresh X on %v: %v", name, err)
		}
	}
	if w := m.Stats().Waits; w != waits {
		t.Errorf("a fresh transaction waited %d times on an empty lock table", w-waits)
	}
	if n := m.ActiveLocks(); n != len(names) {
		t.Errorf("ActiveLocks = %d, want the fresh transaction's %d", n, len(names))
	}
	m.ReleaseAll(txnID)
	checkDrained(t, m)
}

// checkDrained asserts that no lock is held or awaited and that every
// recycled entry and footprint is empty.
func checkDrained(t *testing.T, m *Manager) {
	t.Helper()
	if n := m.ActiveLocks(); n != 0 {
		t.Errorf("ActiveLocks = %d", n)
	}
	for i, s := range m.shards {
		s.mu.Lock()
		if len(s.locks) != 0 || len(s.waitsOn) != 0 {
			t.Errorf("shard %d: %d entries, %d waiters", i, len(s.locks), len(s.waitsOn))
		}
		for _, e := range s.free {
			if len(e.holders) != 0 || len(e.queue) != 0 {
				t.Errorf("shard %d: a retired entry keeps %d holders, %d waiters", i, len(e.holders), len(e.queue))
			}
		}
		s.mu.Unlock()
	}
	for i, r := range m.txns {
		r.mu.Lock()
		if len(r.fps) != 0 {
			t.Errorf("registry partition %d: %d footprints outlive their ReleaseAll", i, len(r.fps))
		}
		for _, fp := range r.free {
			if len(fp.held) != 0 {
				t.Errorf("registry partition %d: a recycled footprint lists %d locks", i, len(fp.held))
			}
		}
		r.mu.Unlock()
	}
}
