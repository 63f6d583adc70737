package lock

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestModeString(t *testing.T) {
	if Shared.String() != "S" || Exclusive.String() != "X" {
		t.Error("Mode.String wrong")
	}
}

func TestSharedCompatible(t *testing.T) {
	m := New()
	if err := m.Acquire(1, "t", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, "t", Shared); err != nil {
		t.Fatal(err)
	}
	if mode, ok := m.Holds(1, "t"); !ok || mode != Shared {
		t.Error("Holds(1) wrong")
	}
	m.ReleaseAll(1)
	m.ReleaseAll(2)
	if _, ok := m.Holds(1, "t"); ok {
		t.Error("lock survives ReleaseAll")
	}
}

func TestReacquireIsNoop(t *testing.T) {
	m := New()
	if err := m.Acquire(1, "t", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, "t", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, "t", Shared); err != nil {
		t.Fatal(err) // X already covers S
	}
	m.ReleaseAll(1)
}

func TestExclusiveBlocks(t *testing.T) {
	m := New()
	if err := m.Acquire(1, "t", Exclusive); err != nil {
		t.Fatal(err)
	}
	var got atomic.Bool
	done := make(chan error, 1)
	go func() {
		err := m.Acquire(2, "t", Shared)
		got.Store(true)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if got.Load() {
		t.Fatal("S granted while X held")
	}
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Waits != 1 {
		t.Errorf("Waits = %d", st.Waits)
	}
}

func TestUpgrade(t *testing.T) {
	m := New()
	if err := m.Acquire(1, "t", Shared); err != nil {
		t.Fatal(err)
	}
	// Sole holder upgrades immediately.
	if err := m.Acquire(1, "t", Exclusive); err != nil {
		t.Fatal(err)
	}
	if mode, _ := m.Holds(1, "t"); mode != Exclusive {
		t.Error("upgrade did not take")
	}
	m.ReleaseAll(1)
}

func TestUpgradeWaitsForOtherReaders(t *testing.T) {
	m := New()
	if err := m.Acquire(1, "t", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, "t", Shared); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(1, "t", Exclusive) }()
	select {
	case <-done:
		t.Fatal("upgrade granted while another reader holds S")
	case <-time.After(10 * time.Millisecond):
	}
	m.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetected(t *testing.T) {
	m := New()
	if err := m.Acquire(1, "a", Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, "b", Exclusive); err != nil {
		t.Fatal(err)
	}
	// Txn 1 blocks on b (held by 2).
	errCh := make(chan error, 1)
	go func() { errCh <- m.Acquire(1, "b", Shared) }()
	time.Sleep(10 * time.Millisecond)
	// Txn 2 requests a (held by 1) -> cycle -> txn 2 is the victim.
	err := m.Acquire(2, "a", Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected ErrDeadlock, got %v", err)
	}
	if st := m.Stats(); st.Deadlocks != 1 {
		t.Errorf("Deadlocks = %d", st.Deadlocks)
	}
	m.ReleaseAll(2) // victim aborts, releasing b
	if err := <-errCh; err != nil {
		t.Fatalf("txn 1 should proceed after victim aborts: %v", err)
	}
	m.ReleaseAll(1)
}

func TestUpgradeDeadlock(t *testing.T) {
	m := New()
	if err := m.Acquire(1, "t", Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, "t", Shared); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(1, "t", Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	// Txn 2 now also tries to upgrade: classic upgrade deadlock.
	err := m.Acquire(2, "t", Exclusive)
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("expected ErrDeadlock, got %v", err)
	}
	m.ReleaseAll(2)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestFIFONoStarvation(t *testing.T) {
	m := New()
	if err := m.Acquire(1, "t", Shared); err != nil {
		t.Fatal(err)
	}
	// Writer queues.
	wDone := make(chan error, 1)
	go func() { wDone <- m.Acquire(2, "t", Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	// A later reader must NOT jump the queued writer.
	rDone := make(chan error, 1)
	go func() { rDone <- m.Acquire(3, "t", Shared) }()
	select {
	case <-rDone:
		t.Fatal("late reader starved the writer")
	case <-time.After(10 * time.Millisecond):
	}
	m.ReleaseAll(1)
	if err := <-wDone; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
	if err := <-rDone; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(3)
}

func TestBatchSharedGrant(t *testing.T) {
	m := New()
	if err := m.Acquire(1, "t", Exclusive); err != nil {
		t.Fatal(err)
	}
	const readers = 5
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = m.Acquire(int64(10+i), "t", Shared)
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	m.ReleaseAll(1)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("reader %d: %v", i, err)
		}
	}
}

func TestConcurrentStress(t *testing.T) {
	m := New()
	const txns = 16
	var wg sync.WaitGroup
	var deadlocks atomic.Int64
	counter := 0 // protected by lock "c"
	for i := 0; i < txns; i++ {
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if err := m.Acquire(id, "c", Exclusive); err != nil {
					deadlocks.Add(1)
					m.ReleaseAll(id)
					continue
				}
				counter++
				m.ReleaseAll(id)
			}
		}(int64(i + 1))
	}
	wg.Wait()
	if int64(counter)+deadlocks.Load() != txns*100 {
		t.Errorf("counter+deadlocks = %d+%d, want %d", counter, deadlocks.Load(), txns*100)
	}
	if deadlocks.Load() != 0 {
		t.Errorf("single-lock workload produced %d deadlocks", deadlocks.Load())
	}
}
