package strip

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stripdb/strip/internal/fault"
)

// Close drains queued work, then rejects new work with ErrShuttingDown —
// classifiable with errors.Is through every facade entry point.
func TestCloseRejectsNewWork(t *testing.T) {
	db := MustOpen(Config{Workers: 2, CloseTimeout: time.Second})
	db.MustExec(`create table kv (k text, v float)`)
	db.MustExec(`insert into kv values ('a', 1)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`insert into kv values ('b', 2)`); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Exec after Close = %v, want ErrShuttingDown", err)
	}
	if err := db.Insert("kv", Str("c"), Float(3)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Insert after Close = %v, want ErrShuttingDown", err)
	}
	err := db.Scheduler().Submit(&Task{Fn: func(*Task) error { return nil }})
	if !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Submit after Close = %v, want ErrShuttingDown", err)
	}
	// Idempotent: the second Close returns the first's result.
	if err := db.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

// Concurrent Exec traffic racing Close: every statement either commits or
// fails with ErrShuttingDown — nothing is silently dropped and nothing
// deadlocks. Run with -race this exercises the submit/stop path end to end.
func TestCloseVsConcurrentExec(t *testing.T) {
	db := MustOpen(Config{Workers: 2, CloseTimeout: time.Second})
	db.MustExec(`create table kv (k text, v float)`)
	db.MustExec(`create index on kv (k)`)
	db.MustExec(`insert into kv values ('a', 0)`)

	var committed, rejected atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, err := db.Exec(`update kv set v += 1 where k = 'a'`)
				switch {
				case err == nil:
					committed.Add(1)
				case errors.Is(err, ErrShuttingDown):
					rejected.Add(1)
				default:
					t.Errorf("Exec: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(time.Millisecond)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	if committed.Load()+rejected.Load() != 800 {
		t.Fatalf("committed %d + rejected %d != 800", committed.Load(), rejected.Load())
	}
	if rejected.Load() == 0 {
		t.Log("Close finished after all Execs; shutdown rejection not exercised this run")
	}
}

// The exported error variables classify engine failures across package
// boundaries with errors.Is.
func TestTypedErrors(t *testing.T) {
	db := MustOpen(Config{Workers: 1})
	defer db.Close()
	db.MustExec(`create table kv (k text, v float)`)
	// The index makes single-row updates take record locks, so the
	// opposite-order writers below build a real record-level cycle.
	db.MustExec(`create index on kv (k)`)

	// ErrReadOnly: writes inside a read-only snapshot transaction.
	ro := db.BeginReadOnly()
	_, err := ro.Insert("kv", []Value{Str("x"), Float(1)})
	if !errors.Is(err, ErrReadOnly) {
		t.Errorf("read-only insert = %v, want ErrReadOnly", err)
	}
	ro.Commit() //nolint:errcheck

	// ErrDeadlock: two transactions locking two keys in opposite order; the
	// victim's error matches ErrDeadlock even through fmt wrapping.
	db.MustExec(`insert into kv values ('a', 1)`)
	db.MustExec(`insert into kv values ('b', 2)`)
	t1, t2 := db.Begin(), db.Begin()
	if _, err := db.ExecIn(t1, `update kv set v = 10 where k = 'a'`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecIn(t2, `update kv set v = 20 where k = 'b'`); err != nil {
		t.Fatal(err)
	}
	// Exactly one side is chosen as the victim and gets ErrDeadlock. The
	// victim must abort promptly — a deadlock error fails the statement but
	// the transaction still holds its locks, and the survivor is parked on
	// one of them.
	done := make(chan error, 1)
	go func() {
		_, err := db.ExecIn(t1, `update kv set v = 11 where k = 'b'`)
		if err != nil {
			t1.Abort() //nolint:errcheck
		}
		done <- err
	}()
	_, err2 := db.ExecIn(t2, `update kv set v = 21 where k = 'a'`)
	if err2 != nil {
		t2.Abort() //nolint:errcheck
	}
	err1 := <-done
	victimErr := err1
	if victimErr == nil {
		victimErr = err2
	}
	if !errors.Is(victimErr, ErrDeadlock) {
		t.Errorf("deadlock victim error = %v / %v, want ErrDeadlock", err1, err2)
	}
	if !IsRetryable(fmt.Errorf("wrapped twice: %w", victimErr)) {
		t.Error("IsRetryable must see through wrapping")
	}
	for _, tx := range []*Txn{t1, t2} {
		tx.Abort() //nolint:errcheck // one is already aborted as the victim
	}
}

// Exec transparently retries deadlock victims: with injected deadlocks
// hitting one in twenty lock acquires, every Exec still commits from the
// caller's view, and the sum reflects exactly the successful statements.
func TestExecRetryMasksTransientAborts(t *testing.T) {
	db := MustOpen(Config{Workers: 1})
	defer db.Close()
	db.MustExec(`create table kv (k text, v float)`)
	db.MustExec(`create index on kv (k)`)
	for i := 0; i < 8; i++ {
		db.MustExec(fmt.Sprintf(`insert into kv values ('k%d', 0)`, i))
	}

	fault.Seed(7)
	t.Cleanup(fault.Reset)
	fault.Enable(fault.LockForceDeadlock, fault.Spec{Prob: 0.05})

	var wg sync.WaitGroup
	var failed atomic.Int64
	const goroutines, perG = 4, 100
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				_, err := db.Exec(fmt.Sprintf(
					`update kv set v += 1 where k = 'k%d'`, (g+i)%8))
				if err != nil {
					failed.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	fired := fault.Fired(fault.LockForceDeadlock)
	fault.Reset()
	if fired == 0 {
		t.Error("no deadlock was ever injected; the retry path was not exercised")
	} else {
		t.Logf("injected deadlocks: %d", fired)
	}
	if failed.Load() != 0 {
		t.Errorf("%d Execs failed despite retry policy", failed.Load())
	}
	sum := 0.0
	for _, r := range db.MustExec(`select k, v from kv`).Rows {
		sum += r[1].Float()
	}
	if want := float64(goroutines * perG); sum != want {
		t.Errorf("sum(v) = %g, want %g (retry duplicated or lost an update)", sum, want)
	}
}
