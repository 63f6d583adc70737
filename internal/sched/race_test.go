package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/cost"
)

// TestStatsRace runs a live worker pool while submitters enqueue tasks and
// readers concurrently poll Stats and Pending. Under -race this verifies
// the registry-backed counters and queue-depth gauges are race-clean.
func TestStatsRace(t *testing.T) {
	rc := clock.NewReal()
	s := New(rc, FIFO, cost.NewMeter(), cost.Zero())
	s.Start(2)
	defer s.Stop()

	const submitters = 3
	const perSubmitter = 100
	var done atomic.Int64
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})

	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := s.Stats()
				if st.Completed > st.Submitted {
					t.Error("completed > submitted")
					return
				}
				d, rdy := s.Pending()
				if d < 0 || rdy < 0 {
					t.Error("negative queue depth")
					return
				}
				runtime.Gosched()
			}
		}()
	}

	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				rel := clock.Micros(0)
				if i%4 == 0 {
					rel = rc.Now() + 500 // exercise the delayed queue
				}
				s.Submit(&Task{
					Name:    "race",
					Release: rel,
					Fn:      func(*Task) error { done.Add(1); return nil },
				})
			}
		}(w)
	}
	wg.Wait()

	const total = submitters * perSubmitter
	deadline := time.Now().Add(10 * time.Second)
	// Idle, not done: a task's Fn returns before its worker counts it
	// completed, and the worker stops running it only after that.
	for !s.Idle() {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d tasks completed", done.Load(), total)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	readers.Wait()

	if st := s.Stats(); st.Submitted != total || st.Completed != total {
		t.Errorf("stats = %+v, want %d submitted and completed", st, total)
	}
}
