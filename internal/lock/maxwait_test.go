package lock

import (
	"errors"
	"testing"
	"time"
)

// A blocked request past the max-wait cap aborts with ErrWaitTimeout, its
// queue entry is withdrawn, and the holder is unaffected.
func TestMaxWaitAborts(t *testing.T) {
	m := New()
	m.SetWaitTimeout(5 * time.Millisecond)
	m.SetMaxWait(20 * time.Millisecond)
	if err := m.Acquire(1, "t", Exclusive); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := m.Acquire(2, "t", Exclusive)
	if !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("got %v, want ErrWaitTimeout", err)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("aborted after %v, before the 20ms cap", waited)
	}
	if st := m.Stats(); st.TimeoutAborts != 1 {
		t.Fatalf("TimeoutAborts = %d, want 1", st.TimeoutAborts)
	}
	// The abandoned waiter must not linger: txn 3 queues fresh behind the
	// holder and is granted on release.
	done := make(chan error, 1)
	go func() { done <- m.Acquire(3, "t", Exclusive) }()
	time.Sleep(2 * time.Millisecond)
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatalf("waiter after abandon: %v", err)
	}
	m.ReleaseAll(3)
	if n := m.ActiveLocks(); n != 0 {
		t.Fatalf("ActiveLocks = %d after all releases", n)
	}
}

// A waiter that gives up at the max-wait cap must re-promote the queue: a
// reader parked behind the abandoned writer is granted when the writer
// leaves, well before its own cap.
func TestAbandonedWaitPromotesQueue(t *testing.T) {
	m := New()
	m.SetWaitTimeout(2 * time.Millisecond)
	m.SetMaxWait(20 * time.Millisecond)
	if err := m.Acquire(1, "t", Shared); err != nil {
		t.Fatal(err)
	}
	bDone := make(chan error, 1)
	go func() { bDone <- m.Acquire(2, "t", Exclusive) }()
	waitForWaiters(t, m, 1)
	time.Sleep(8 * time.Millisecond) // the reader's cap falls well after the writer's
	cDone := make(chan error, 1)
	go func() { cDone <- m.Acquire(3, "t", Shared) }()
	waitForWaiters(t, m, 2)
	if err := <-bDone; !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("expected ErrWaitTimeout, got %v", err)
	}
	if err := <-cDone; err != nil {
		t.Fatalf("reader behind the abandoned writer: %v", err)
	}
	if st := m.Stats(); st.TimeoutAborts != 1 {
		t.Fatalf("TimeoutAborts = %d, want 1 (the reader must not time out)", st.TimeoutAborts)
	}
	m.ReleaseAll(1)
	m.ReleaseAll(3)
	if n := m.ActiveLocks(); n != 0 {
		t.Fatalf("ActiveLocks = %d after all releases", n)
	}
}

// With no cap configured a waiter parks through many fallback-detector
// rounds and is eventually granted, not aborted.
func TestNoMaxWaitStillBlocks(t *testing.T) {
	m := New()
	m.SetWaitTimeout(2 * time.Millisecond)
	if err := m.Acquire(1, "t", Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(2, "t", Exclusive) }()
	time.Sleep(15 * time.Millisecond) // several detector rounds
	select {
	case err := <-done:
		t.Fatalf("uncapped waiter returned early: %v", err)
	default:
	}
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// ActiveLocks counts distinct held resources across shards.
func TestActiveLocks(t *testing.T) {
	m := NewSharded(4)
	if n := m.ActiveLocks(); n != 0 {
		t.Fatalf("fresh manager holds %d locks", n)
	}
	m.Acquire(1, "a", Shared)              //nolint:errcheck
	m.Acquire(1, RecordID{"a", 7}, Shared) //nolint:errcheck
	m.Acquire(2, "b", Exclusive)           //nolint:errcheck
	if n := m.ActiveLocks(); n != 3 {
		t.Fatalf("ActiveLocks = %d, want 3", n)
	}
	m.ReleaseAll(1)
	m.ReleaseAll(2)
	if n := m.ActiveLocks(); n != 0 {
		t.Fatalf("ActiveLocks = %d after release", n)
	}
}
