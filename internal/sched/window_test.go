package sched

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/cost"
)

// slidingFilter is the start-rate charge as the scheduler computed it
// before the window became a queue: re-filter every remembered start on
// every start. Kept here as the reference the O(1) window must agree with.
type slidingFilter struct {
	recent []clock.Micros
}

func (f *slidingFilter) charge(meter *cost.Meter, rate float64, now clock.Micros) {
	cutoff := now - 1_000_000
	keep := f.recent[:0]
	for _, ts := range f.recent {
		if ts > cutoff {
			keep = append(keep, ts)
		}
	}
	f.recent = append(keep, now)
	meter.Charge(rate * float64(len(f.recent)))
}

// A seeded virtual-clock trace of submits, steps and clock jumps charges the
// meter exactly what the old sliding filter charged, start by start.
func TestStartChargeMatchesSlidingFilter(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		s, vc, meter := newVirtualSched(FIFO)
		model := cost.Default()
		ref, refMeter := &slidingFilter{}, cost.NewMeter()
		rng := rand.New(rand.NewSource(seed))
		noop := func(*Task) error { return nil }
		starts := 0
		for i := 0; i < 20_000; i++ {
			switch r := rng.Intn(100); {
			case r < 45:
				var rel clock.Micros
				if rng.Intn(3) == 0 {
					rel = vc.Now() + clock.Micros(rng.Intn(400_000))
				}
				s.Submit(&Task{Release: rel, Fn: noop}) //nolint:errcheck // not stopped
			case r < 85:
				if task := s.Step(); task != nil {
					starts++
					ref.charge(refMeter, model.SchedPerTaskRate, task.StartedAt)
					refMeter.Charge(model.BeginTask)
					refMeter.Charge(model.EndTask)
				}
			case r < 99:
				vc.Advance(clock.Micros(rng.Intn(2_000))) // bursts inside one window
			default:
				vc.Advance(clock.Micros(500_000 + rng.Intn(1_500_000))) // empties it
			}
			if got, want := meter.Micros(), refMeter.Micros(); got != want {
				t.Fatalf("seed %d op %d (%d starts): charged %v, sliding filter %v", seed, i, starts, got, want)
			}
		}
		if starts < 5_000 {
			t.Fatalf("seed %d: only %d starts; the trace does not exercise the window", seed, starts)
		}
		if live := len(s.starts) - s.startsHead; live != len(ref.recent) {
			t.Errorf("seed %d: window holds %d starts, filter %d", seed, live, len(ref.recent))
		}
		if len(s.starts) > 2*len(ref.recent)+1 {
			t.Errorf("seed %d: %d slots behind %d live starts; the spent prefix is not reclaimed", seed, len(s.starts), len(ref.recent))
		}
	}
}

// The live engine's model prices nothing, so it keeps no start window.
func TestZeroModelKeepsNoWindow(t *testing.T) {
	s := New(clock.NewVirtual(), FIFO, cost.NewMeter(), cost.Zero())
	for i := 0; i < 100; i++ {
		s.Submit(&Task{}) //nolint:errcheck // not stopped
	}
	s.Drain()
	if len(s.starts) != 0 || cap(s.starts) != 0 {
		t.Errorf("zero-cost model kept a start window: len %d cap %d", len(s.starts), cap(s.starts))
	}
}

// Ten thousand timed idle waits — a worker parked while the delay queue is
// not empty — are served by the scheduler's one timer: 50 workers each wait
// out every link of a 200-link chain of delayed tasks, and the goroutine
// count never exceeds the workers plus the timer's callback.
func TestTimedWaitsSpawnNoGoroutines(t *testing.T) {
	rc := clock.NewReal()
	s := New(rc, FIFO, cost.NewMeter(), cost.Zero())
	const workers, links = 50, 200
	s.Start(workers)
	defer s.Stop()
	// Never due: with it queued, every idle wait below is a timed one.
	s.Submit(&Task{Release: rc.Now() + 3_600_000_000}) //nolint:errcheck // not stopped
	time.Sleep(5 * time.Millisecond)                   // all workers parked
	base := runtime.NumGoroutine()

	var n, peak atomic.Int64
	done := make(chan struct{})
	var body func(*Task) error
	body = func(*Task) error {
		if g := int64(runtime.NumGoroutine()); g > peak.Load() {
			peak.Store(g)
		}
		if n.Add(1) == links {
			close(done)
			return nil
		}
		// Due 100 µs from now: every worker is parked again long before
		// that, so only the timer can start the next link.
		return s.Submit(&Task{Release: rc.Now() + 100, Fn: body})
	}
	if err := s.Submit(&Task{Release: rc.Now() + 100, Fn: body}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("chain stalled after %d of %d links", n.Load(), links)
	}
	if p := peak.Load(); p > int64(base)+1 {
		t.Errorf("goroutines peaked at %d over %d timed waits, want <= %d (base %d + timer callback)",
			p, workers*links, base+1, base)
	}
	time.Sleep(5 * time.Millisecond)
	if g := runtime.NumGoroutine(); g > base {
		t.Errorf("goroutines after the waits = %d, before = %d", g, base)
	}
}

// A delayed task that comes due while StopDrain is waiting still runs, even
// though every worker was parked when the drain began.
func TestStopDrainRunsTaskReleasedDuringDrain(t *testing.T) {
	rc := clock.NewReal()
	s := New(rc, FIFO, cost.NewMeter(), cost.Zero())
	s.Start(2)
	var ran atomic.Bool
	s.Submit(&Task{Release: rc.Now() + 20_000, Fn: func(*Task) error { ran.Store(true); return nil }}) //nolint:errcheck
	s.Submit(&Task{Release: rc.Now() + 3_600_000_000})                                                 //nolint:errcheck // never due
	time.Sleep(2 * time.Millisecond)
	// The drain is idle at once (nothing ready, nothing running), so give
	// the 20 ms task time to come due by holding a ready task open.
	gate := make(chan struct{})
	s.Submit(&Task{Fn: func(*Task) error { <-gate; return nil }}) //nolint:errcheck
	go func() { time.Sleep(40 * time.Millisecond); close(gate) }()
	s.StopDrain(2 * time.Second)
	if !ran.Load() {
		t.Error("task released during the drain did not run")
	}
	if st := s.Stats(); st.Completed != 2 || st.Abandoned != 1 {
		t.Errorf("completed %d abandoned %d, want 2 and 1", st.Completed, st.Abandoned)
	}
	if err := s.Submit(&Task{}); err != ErrStopped {
		t.Errorf("Submit after StopDrain = %v, want ErrStopped", err)
	}
}

// BenchmarkSubmitStep is the scheduler's share of the task shell: one
// Submit and one Step of an empty task on the virtual clock under the
// paper-calibrated model, with `recent` starts inside the trailing second.
// The start-rate charge is O(1), so ns/op must not depend on `recent`.
func BenchmarkSubmitStep(b *testing.B) {
	for _, recent := range []int{1_000, 20_000} {
		b.Run(fmt.Sprintf("recent=%dk", recent/1000), func(b *testing.B) {
			vc := clock.NewVirtual()
			s := New(vc, FIFO, cost.NewMeter(), cost.Default())
			task := &Task{Fn: func(*Task) error { return nil }}
			gap := clock.Micros(1_000_000 / recent)
			op := func() {
				vc.Advance(gap)
				task.ID = 0
				s.Submit(task) //nolint:errcheck // not stopped
				s.Step()
			}
			for i := 0; i < 2*recent; i++ {
				op()
			}
			if live := len(s.starts) - s.startsHead; live != recent {
				b.Fatalf("window holds %d starts, want %d", live, recent)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}
