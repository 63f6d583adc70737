package storage

import (
	"fmt"
	"testing"
	"time"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/index"
	"github.com/stripdb/strip/internal/types"
)

// commitInsert inserts a row the way a transaction does — unstamped via
// InsertReserved — and then stamps it committed at lsn.
func commitInsert(t *testing.T, tbl *Table, lsn uint64, vals ...types.Value) *Record {
	t.Helper()
	r, err := tbl.InsertReserved(tbl.ReserveID(), vals)
	if err != nil {
		t.Fatal(err)
	}
	r.StampCreate(lsn)
	return r
}

// commitUpdate replaces r with vals and stamps the pair committed at lsn.
func commitUpdate(t *testing.T, tbl *Table, r *Record, lsn uint64, vals ...types.Value) *Record {
	t.Helper()
	nr, err := tbl.Update(r, vals)
	if err != nil {
		t.Fatal(err)
	}
	nr.StampCreate(lsn)
	r.StampDelete(lsn)
	return nr
}

func snapRows(tbl *Table, snap uint64, me int64) map[string]float64 {
	out := map[string]float64{}
	tbl.ScanSnapshot(snap, me, func(r *Record) bool {
		out[r.Value(0).Str()] = r.Value(1).Float()
		return true
	})
	return out
}

func TestVisibleAt(t *testing.T) {
	mk := func(c, d uint64, w int64) *Record {
		r := &Record{}
		if c != 0 {
			r.createLSN.Store(c)
		}
		if d != 0 {
			r.deleteLSN.Store(d)
		}
		r.SetWriter(w)
		return r
	}
	cases := []struct {
		name string
		rec  *Record
		snap uint64
		me   int64
		want bool
	}{
		{"committed before snap", mk(5, 0, 0), 5, 1, true},
		{"committed after snap", mk(6, 0, 0), 5, 1, false},
		{"uncommitted, other txn", mk(0, 0, 7), 5, 1, false},
		{"uncommitted, own write", mk(0, 0, 7), 5, 7, true},
		{"uncommitted, no txn identity", mk(0, 0, 7), 5, 0, false},
		{"deleted at or before snap", mk(3, 5, 0), 5, 1, false},
		{"deleted after snap", mk(3, 6, 0), 5, 1, true},
		{"pending delete, other txn", mk(3, PendingLSN, 7), 5, 1, true},
		{"pending delete, own delete", mk(3, PendingLSN, 7), 5, 7, false},
		{"bootstrap", mk(BootstrapLSN, 0, 0), BootstrapLSN, 0, true},
	}
	for _, c := range cases {
		if got := c.rec.VisibleAt(c.snap, c.me); got != c.want {
			t.Errorf("%s: VisibleAt(%d, %d) = %v, want %v", c.name, c.snap, c.me, got, c.want)
		}
	}
}

// TestSnapshotScanVersions walks version chains: each snapshot must see the
// newest version committed at or before it, across updates and deletes.
func TestSnapshotScanVersions(t *testing.T) {
	tbl := stocksTable(t)
	ibm := commitInsert(t, tbl, 2, types.Str("IBM"), types.Float(30))
	commitInsert(t, tbl, 3, types.Str("DEC"), types.Float(70))
	ibm2 := commitUpdate(t, tbl, ibm, 4, types.Str("IBM"), types.Float(31))
	commitUpdate(t, tbl, ibm2, 5, types.Str("IBM"), types.Float(32))

	want := []map[string]float64{
		1: {},
		2: {"IBM": 30},
		3: {"IBM": 30, "DEC": 70},
		4: {"IBM": 31, "DEC": 70},
		5: {"IBM": 32, "DEC": 70},
	}
	for snap := uint64(1); snap <= 5; snap++ {
		got := snapRows(tbl, snap, 0)
		if len(got) != len(want[snap]) {
			t.Fatalf("snap %d: rows = %v, want %v", snap, got, want[snap])
		}
		for sym, price := range want[snap] {
			if got[sym] != price {
				t.Errorf("snap %d: %s = %v, want %v", snap, sym, got[sym], price)
			}
		}
	}
}

// TestSnapshotSeesDeletedRow keeps a deleted row visible to snapshots older
// than the delete via the retired set, and hides it from newer ones.
func TestSnapshotSeesDeletedRow(t *testing.T) {
	tbl := stocksTable(t)
	r := commitInsert(t, tbl, 2, types.Str("IBM"), types.Float(30))
	if err := tbl.Delete(r); err != nil {
		t.Fatal(err)
	}
	r.SetWriter(9)
	// Pending delete: visible to everyone but the deleter.
	if got := snapRows(tbl, 2, 1); got["IBM"] != 30 {
		t.Fatalf("pending delete hidden from other snapshot: %v", got)
	}
	if got := snapRows(tbl, 2, 9); len(got) != 0 {
		t.Fatalf("deleter still sees own pending delete: %v", got)
	}
	r.StampDelete(3)
	if got := snapRows(tbl, 2, 1); got["IBM"] != 30 {
		t.Fatalf("snapshot 2 lost pre-delete row: %v", got)
	}
	if got := snapRows(tbl, 3, 1); len(got) != 0 {
		t.Fatalf("snapshot 3 sees deleted row: %v", got)
	}
}

// TestAbortedUpdateNoDuplicate covers the abort-relink edge: after an
// uncommitted update is rolled back, a snapshot scan must emit the restored
// row exactly once (UndoUpdate cuts the copy loose).
func TestAbortedUpdateNoDuplicate(t *testing.T) {
	tbl := stocksTable(t)
	r := commitInsert(t, tbl, 2, types.Str("IBM"), types.Float(30))
	nr, err := tbl.Update(r, []types.Value{types.Str("IBM"), types.Float(31)})
	if err != nil {
		t.Fatal(err)
	}
	nr.SetWriter(5)
	// Roll back, the way Txn.Abort does for OpUpdate.
	if err := tbl.UndoUpdate(r, nr); err != nil {
		t.Fatal(err)
	}
	var seen int
	tbl.ScanSnapshot(2, 0, func(rec *Record) bool {
		if rec != r {
			t.Errorf("scan emitted %v, want restored record", rec.Values())
		}
		seen++
		return true
	})
	if seen != 1 {
		t.Fatalf("restored row emitted %d times, want 1", seen)
	}
	// The abandoned copy is unreachable; GC must reclaim it.
	tbl.ReleaseVersions(2)
	if got := tbl.VersionStats(); got != 0 {
		t.Fatalf("versions retained after abort GC = %d, want 0", got)
	}
}

// TestLookupSnapshotChurn verifies the index fast path: exact while indexed
// columns are immutable, disabled (fall back to scans) once an update
// changes an indexed value.
func TestLookupSnapshotChurn(t *testing.T) {
	tbl := stocksTable(t)
	if err := tbl.CreateIndex("symbol", index.Hash); err != nil {
		t.Fatal(err)
	}
	r := commitInsert(t, tbl, 2, types.Str("IBM"), types.Float(30))
	recs, ok := tbl.LookupSnapshot("symbol", types.Str("IBM"), 2, 0, nil)
	if !ok || len(recs) != 1 {
		t.Fatalf("LookupSnapshot = %v, %v; want 1 record", recs, ok)
	}
	if tbl.KeyChurn() != 0 {
		t.Fatalf("keyChurn = %d before any key change", tbl.KeyChurn())
	}
	// Price-only update keeps the fast path.
	r2 := commitUpdate(t, tbl, r, 3, types.Str("IBM"), types.Float(31))
	if _, ok := tbl.LookupSnapshot("symbol", types.Str("IBM"), 3, 0, nil); !ok {
		t.Fatal("price update disabled index probes")
	}
	// Key change: probes must refuse (old snapshots need the old key).
	commitUpdate(t, tbl, r2, 4, types.Str("HAL"), types.Float(31))
	if tbl.KeyChurn() == 0 {
		t.Fatal("key change not counted")
	}
	if _, ok := tbl.LookupSnapshot("symbol", types.Str("IBM"), 3, 0, nil); ok {
		t.Fatal("index probe served despite key churn")
	}
}

// TestLookupSnapshotRetiredIndex: deleted rows reach snapshot probes
// through the per-column retired index rather than a full retired-set
// scan, late-created indexes cover already-retired rows, relink cleans the
// entries up, and GC drops them.
func TestLookupSnapshotRetiredIndex(t *testing.T) {
	tbl := stocksTable(t)
	if err := tbl.CreateIndex("symbol", index.Hash); err != nil {
		t.Fatal(err)
	}
	r := commitInsert(t, tbl, 2, types.Str("IBM"), types.Float(30))
	keep := commitInsert(t, tbl, 2, types.Str("DEC"), types.Float(70))
	if err := tbl.Delete(r); err != nil {
		t.Fatal(err)
	}
	r.StampDelete(4)

	// Older snapshot: the probe still finds the deleted row, exactly.
	recs, ok := tbl.LookupSnapshot("symbol", types.Str("IBM"), 3, 0, nil)
	if !ok || len(recs) != 1 || recs[0].Value(1).Float() != 30 {
		t.Fatalf("probe at snap 3 = %v, %v; want the deleted IBM row", recs, ok)
	}
	// Newer snapshot: the delete committed at or before it, row invisible.
	if recs, ok := tbl.LookupSnapshot("symbol", types.Str("IBM"), 4, 0, nil); !ok || len(recs) != 0 {
		t.Fatalf("probe at snap 4 = %v, %v; want none", recs, ok)
	}

	// An index created after the delete must cover the retired row too.
	if err := tbl.CreateIndex("price", index.Hash); err != nil {
		t.Fatal(err)
	}
	if recs, ok := tbl.LookupSnapshot("price", types.Float(30), 3, 0, nil); !ok || len(recs) != 1 {
		t.Fatalf("late-index probe = %v, %v; want the retired IBM row", recs, ok)
	}

	// Relink (delete rollback) removes the retired entries and restores the
	// live ones.
	if err := tbl.Delete(keep); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Relink(keep); err != nil {
		t.Fatal(err)
	}
	if recs, ok := tbl.LookupSnapshot("symbol", types.Str("DEC"), 5, 0, nil); !ok || len(recs) != 1 {
		t.Fatalf("post-relink probe = %v, %v; want the live DEC row", recs, ok)
	}

	// GC past the delete drops the row from the retired index as well.
	tbl.ReleaseVersions(4)
	if recs, ok := tbl.LookupSnapshot("symbol", types.Str("IBM"), 3, 0, nil); !ok || len(recs) != 0 {
		t.Fatalf("post-GC probe = %v, %v; want none", recs, ok)
	}
}

// TestReleaseVersionsHorizon prunes chains below the oldest snapshot while
// keeping everything a live snapshot can still reach.
func TestReleaseVersionsHorizon(t *testing.T) {
	tbl := stocksTable(t)
	r := commitInsert(t, tbl, 2, types.Str("IBM"), types.Float(30))
	for lsn := uint64(3); lsn <= 10; lsn++ {
		r = commitUpdate(t, tbl, r, lsn, types.Str("IBM"), types.Float(float64(28+lsn)))
	}
	if got := tbl.VersionStats(); got != 8 {
		t.Fatalf("versions retained before GC = %d, want 8", got)
	}
	// Horizon 6: versions committed ≤6 other than the newest ≤6 one die.
	tbl.ReleaseVersions(6)
	if got := snapRows(tbl, 6, 0); got["IBM"] != 34 {
		t.Fatalf("snapshot 6 after GC: %v, want IBM=34", got)
	}
	if got := snapRows(tbl, 8, 0); got["IBM"] != 36 {
		t.Fatalf("snapshot 8 after GC: %v, want IBM=36", got)
	}
	if got := tbl.VersionStats(); got != 4 {
		t.Fatalf("versions retained after GC(6) = %d, want 4", got)
	}
	// Horizon 10 (= newest): only the head survives.
	tbl.ReleaseVersions(10)
	if got := tbl.VersionStats(); got != 0 {
		t.Fatalf("versions retained after GC(10) = %d, want 0", got)
	}
	// Deleted rows leave the retired set once the delete passes the horizon.
	if err := tbl.Delete(r); err != nil {
		t.Fatal(err)
	}
	r.StampDelete(11)
	tbl.ReleaseVersions(10)
	if got := snapRows(tbl, 10, 0); got["IBM"] != 38 {
		t.Fatalf("retired row pruned too early: %v", got)
	}
	tbl.ReleaseVersions(11)
	if got := tbl.VersionStats(); got != 0 {
		t.Fatalf("versions retained after delete GC = %d, want 0", got)
	}
	if got := snapRows(tbl, 11, 0); len(got) != 0 {
		t.Fatalf("deleted row visible after GC: %v", got)
	}
}

// TestUpdateChurnBoundedVersions is the version-retirement leak check: under
// sustained update churn with periodic GC at the newest LSN, retained
// version counts must stay bounded — including updates that abort.
func TestUpdateChurnBoundedVersions(t *testing.T) {
	tbl := stocksTable(t)
	const rows, rounds = 8, 200
	recs := make([]*Record, rows)
	lsn := uint64(2)
	for i := range recs {
		recs[i] = commitInsert(t, tbl, lsn, types.Str("S"+string(rune('A'+i))), types.Float(1))
		lsn++
	}
	for round := 0; round < rounds; round++ {
		for i := range recs {
			if round%3 == 2 {
				// Aborted update: copy, then roll back.
				nr, err := tbl.Update(recs[i], []types.Value{recs[i].Value(0), types.Float(float64(round))})
				if err != nil {
					t.Fatal(err)
				}
				nr.SetWriter(99)
				if err := tbl.UndoUpdate(recs[i], nr); err != nil {
					t.Fatal(err)
				}
				continue
			}
			recs[i] = commitUpdate(t, tbl, recs[i], lsn, recs[i].Value(0), types.Float(float64(round)))
			lsn++
		}
		if round%10 == 9 {
			tbl.ReleaseVersions(lsn - 1)
			if got := tbl.VersionStats(); got > rows {
				t.Fatalf("round %d: versions retained = %d, want <= %d", round, got, rows)
			}
		}
	}
	tbl.ReleaseVersions(lsn - 1)
	if got := tbl.VersionStats(); got != 0 {
		t.Fatalf("versions retained after final GC = %d, want 0", got)
	}
	if got := tbl.Len(); got != rows {
		t.Fatalf("live rows = %d, want %d", got, rows)
	}
}

// TestReleaseVersionsVisitsOnlyDirtyHeads pins down what a sweep costs: its
// work list holds the heads updated since the last sweep (plus those whose
// chains a snapshot still holds), not the table.
func TestReleaseVersionsVisitsOnlyDirtyHeads(t *testing.T) {
	tbl := stocksTable(t)
	const rows = 1000
	recs := make([]*Record, rows)
	for i := range recs {
		recs[i] = commitInsert(t, tbl, 2, types.Str(fmt.Sprintf("S%04d", i)), types.Float(1))
	}
	if len(tbl.dirty) != 0 {
		t.Fatalf("inserts put %d heads on the GC list", len(tbl.dirty))
	}
	lsn := uint64(3)
	for i := 0; i < 10; i++ {
		recs[i] = commitUpdate(t, tbl, recs[i], lsn, recs[i].Value(0), types.Float(2))
		lsn++
	}
	recs[0] = commitUpdate(t, tbl, recs[0], lsn, recs[0].Value(0), types.Float(3)) // same row again
	if len(tbl.dirty) != 11 {
		t.Fatalf("GC list holds %d heads after 11 updates, want 11", len(tbl.dirty))
	}
	// Horizon 7: rows 1–4 (committed at 4–7) lose their original and leave
	// the list, the superseded head of row 0 (3) leaves it too, and row 0's
	// chain is cut below that version; row 0's newer head (13) and rows 5–9
	// (8–12) keep one older version each and stay.
	if dropped := tbl.ReleaseVersions(7); dropped != 5 {
		t.Fatalf("dropped %d versions at horizon 7, want 5", dropped)
	}
	if len(tbl.dirty) != 6 || tbl.Stats().VersionsRetained != 6 || tbl.VersionStats() != 6 {
		t.Fatalf("after horizon 7: list %d, stat %d, walk %d; want 6, 6, 6",
			len(tbl.dirty), tbl.Stats().VersionsRetained, tbl.VersionStats())
	}
	if dropped := tbl.ReleaseVersions(lsn); dropped != 6 {
		t.Fatalf("dropped %d versions at the newest LSN, want 6", dropped)
	}
	if len(tbl.dirty) != 0 || tbl.VersionStats() != 0 {
		t.Fatalf("after the newest LSN: list %d, walk %d; want 0, 0", len(tbl.dirty), tbl.VersionStats())
	}
}

// BenchmarkReleaseVersions is one GC cycle — 64 committed updates, then the
// sweep that reclaims their 64 superseded versions — on tables of 10k and
// 100k rows. The sweep visits the 64 dirty heads, so neither ns/op nor the
// sweep's own share (sweep-ns/op) may depend on `rows`.
func BenchmarkReleaseVersions(b *testing.B) {
	const dirty = 64
	for _, rows := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("rows=%dk/dirty=%d", rows/1000, dirty), func(b *testing.B) {
			tbl := NewTable(catalog.MustSchema("stocks",
				catalog.Column{Name: "symbol", Kind: types.KindString},
				catalog.Column{Name: "price", Kind: types.KindFloat}))
			recs := make([]*Record, rows)
			for i := range recs {
				r, err := tbl.Insert([]types.Value{types.Str(fmt.Sprintf("S%06d", i)), types.Float(1)})
				if err != nil {
					b.Fatal(err)
				}
				recs[i] = r
			}
			lsn := uint64(BootstrapLSN)
			var sweep time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < dirty; j++ {
					k := (i*dirty + j) * 7919 % rows
					nr, err := tbl.Update(recs[k], []types.Value{recs[k].Value(0), types.Float(float64(i))})
					if err != nil {
						b.Fatal(err)
					}
					lsn++
					nr.StampCreate(lsn)
					recs[k].StampDelete(lsn)
					recs[k] = nr
				}
				t0 := time.Now()
				dropped := tbl.ReleaseVersions(lsn)
				sweep += time.Since(t0)
				if dropped != dirty {
					b.Fatalf("sweep dropped %d versions, want %d", dropped, dirty)
				}
			}
			b.ReportMetric(float64(sweep.Nanoseconds())/float64(b.N), "sweep-ns/op")
		})
	}
}
