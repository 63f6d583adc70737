package lock

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/stripdb/strip/internal/obs"
)

// TestStatsRace hammers Acquire/ReleaseAll from many goroutines while other
// goroutines continuously read Stats. Run under -race this verifies the
// registry-backed counters make the stats path race-clean.
func TestStatsRace(t *testing.T) {
	m := New()
	var now atomic.Int64
	m.Instrument(obs.NewRegistry(), func() int64 { return now.Add(1) })

	const workers = 4
	const iters = 100
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})

	// Readers: poll Stats concurrently with lock traffic.
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
				st := m.Stats()
				if st.Acquires < 0 || st.Waits < 0 || st.Deadlocks < 0 {
					t.Error("negative counter")
					return
				}
				runtime.Gosched()
			}
		}()
	}

	// Writers: contend on a small set of resources so waits (and the wait
	// histogram path) actually happen.
	var txnID atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(res string) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				txn := txnID.Add(1)
				if err := m.Acquire(txn, res, Exclusive); err != nil {
					continue // deadlock victim: fine
				}
				m.Acquire(txn, "shared-res", Shared) //nolint:errcheck
				m.ReleaseAll(txn)
			}
		}([]string{"hot-0", "hot-1"}[w%2])
	}

	wg.Wait()
	close(stop)
	readers.Wait()

	st := m.Stats()
	if st.Acquires < workers*iters {
		t.Errorf("acquires = %d, want >= %d", st.Acquires, workers*iters)
	}
}
