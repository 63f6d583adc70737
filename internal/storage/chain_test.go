package storage

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stripdb/strip/internal/types"
)

// TestDroppedVersionPinsOnlyItself: once GC drops a chain's old versions, a
// pointer still held to one of them (as a pooled record set or a bound table
// may hold one) keeps that version alive and nothing below it.
func TestDroppedVersionPinsOnlyItself(t *testing.T) {
	tbl := stocksTable(t)
	r := commitInsert(t, tbl, 2, types.Str("IBM"), types.Float(2))
	var pinned *Record
	var freed atomic.Int32
	const pinAt, head = 6, 12
	for lsn := uint64(3); lsn <= head; lsn++ {
		if lsn-1 == pinAt {
			pinned = r
		} else {
			runtime.SetFinalizer(r, func(*Record) { freed.Add(1) })
		}
		r = commitUpdate(t, tbl, r, lsn, types.Str("IBM"), types.Float(float64(lsn)))
	}
	tbl.ReleaseVersions(head)
	if got := tbl.VersionStats(); got != 0 {
		t.Fatalf("versions retained after GC(%d) = %d, want 0", head, got)
	}
	if pinned.Older() != nil {
		t.Fatal("a dropped version still links to the versions below it")
	}
	const want = head - 2 - 1 // every old version but the pinned one
	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() < want && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got != want {
		t.Errorf("%d of the %d unpinned dropped versions were reclaimed", got, want)
	}
	runtime.KeepAlive(pinned)
}

// TestReleaseVersionsUnderSnapshotScans runs GC truncation against readers
// walking the table at their snapshots (run it under -race): every reader
// sees each row exactly once, at a version committed no later than its
// snapshot, however the chains are cut meanwhile.
func TestReleaseVersionsUnderSnapshotScans(t *testing.T) {
	tbl := stocksTable(t)
	const rows, rounds, readers = 8, 300, 2
	recs := make([]*Record, rows)
	for i := range recs {
		recs[i] = commitInsert(t, tbl, 2, types.Str(string(rune('A'+i))), types.Float(2))
	}
	// A reader registers its snapshot before it walks; GC's horizon is the
	// oldest registered one, as the transaction manager computes it.
	var mu sync.Mutex
	latest, active := uint64(2), map[int]uint64{}
	var done atomic.Bool
	var wg sync.WaitGroup
	for id := 0; id < readers; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []*Record
			for !done.Load() {
				mu.Lock()
				snap := latest
				active[id] = snap
				mu.Unlock()
				buf = tbl.AppendVisible(buf[:0], snap, 0)
				seen := map[string]bool{}
				for _, r := range buf {
					if c := r.CreateLSN(); c == 0 || c > snap || seen[r.Value(0).Str()] {
						t.Errorf("snapshot %d saw %v created at %d (seen before: %v)", snap, r.Values(), c, seen[r.Value(0).Str()])
						return
					}
					seen[r.Value(0).Str()] = true
				}
				if len(seen) != rows {
					t.Errorf("snapshot %d saw %d rows, want %d", snap, len(seen), rows)
					return
				}
				mu.Lock()
				delete(active, id)
				mu.Unlock()
			}
		}()
	}
	for lsn := uint64(3); lsn < 3+rounds; lsn++ {
		for i := range recs {
			recs[i] = commitUpdate(t, tbl, recs[i], lsn, recs[i].Value(0), types.Float(float64(lsn)))
		}
		mu.Lock()
		latest = lsn
		horizon := lsn
		for _, s := range active {
			horizon = min(horizon, s)
		}
		mu.Unlock()
		tbl.ReleaseVersions(horizon)
	}
	done.Store(true)
	wg.Wait()
	tbl.ReleaseVersions(2 + rounds)
	if got := tbl.VersionStats(); got != 0 {
		t.Fatalf("versions retained after the final GC = %d, want 0", got)
	}
}
