package txn_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stripdb/strip/internal/index"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
	"github.com/stripdb/strip/internal/wal"
)

// snapScan reads the table through tx's snapshot, returning k -> v.
func snapScan(t *testing.T, e *walEnv, tx *txn.Txn, table string) map[string]int64 {
	t.Helper()
	snap, me, ok := tx.SnapshotRead()
	if !ok {
		t.Fatal("transaction is not reading from a snapshot")
	}
	tbl, found := e.store.Get(table)
	if !found {
		t.Fatalf("table %q missing", table)
	}
	out := map[string]int64{}
	tbl.ScanSnapshot(snap, me, func(r *storage.Record) bool {
		out[r.Value(0).Str()] = r.Value(1).Int()
		return true
	})
	return out
}

// TestSnapshotIgnoresLaterCommits pins a reader's snapshot before a write
// commits; even though the reader's scan physically runs after the commit,
// it must not see the new row. A snapshot taken after the commit sees it.
func TestSnapshotIgnoresLaterCommits(t *testing.T) {
	e := openWalEnv(t, t.TempDir(), wal.Options{})
	defer e.wal.Close()
	e.createTable(t, "t")

	reader := e.mgr.BeginReadOnly()
	if !reader.ReadOnly() || !reader.SnapshotReads() {
		t.Fatal("BeginReadOnly did not arm snapshot reads")
	}
	before := snapScan(t, e, reader, "t") // pins the snapshot
	if len(before) != 0 {
		t.Fatalf("empty table scanned rows: %v", before)
	}

	w := e.mgr.Begin()
	if _, err := w.Insert("t", []types.Value{types.Str("a"), types.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	if got := snapScan(t, e, reader, "t"); len(got) != 0 {
		t.Fatalf("pinned snapshot saw a later commit: %v", got)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}

	after := e.mgr.BeginReadOnly()
	if got := snapScan(t, e, after, "t"); got["a"] != 1 {
		t.Fatalf("fresh snapshot missing committed row: %v", got)
	}
	if err := after.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestReadOnlyRejectsWrites: writes inside a read-only transaction fail
// with ErrReadOnly and leave no trace.
func TestReadOnlyRejectsWrites(t *testing.T) {
	e := openWalEnv(t, t.TempDir(), wal.Options{})
	defer e.wal.Close()
	e.createTable(t, "t")

	w := e.mgr.Begin()
	rec, err := w.Insert("t", []types.Value{types.Str("a"), types.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	ro := e.mgr.BeginReadOnly()
	if _, err := ro.Insert("t", []types.Value{types.Str("b"), types.Int(2)}); !errors.Is(err, txn.ErrReadOnly) {
		t.Fatalf("Insert err = %v, want ErrReadOnly", err)
	}
	if _, err := ro.Update("t", rec, []types.Value{types.Str("a"), types.Int(9)}); !errors.Is(err, txn.ErrReadOnly) {
		t.Fatalf("Update err = %v, want ErrReadOnly", err)
	}
	if err := ro.Delete("t", rec); !errors.Is(err, txn.ErrReadOnly) {
		t.Fatalf("Delete err = %v, want ErrReadOnly", err)
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := e.rows(t, "t"); len(got) != 1 {
		t.Fatalf("rows after read-only txn: %v", got)
	}
}

// TestSnapshotHorizonTracking: a pinned snapshot holds the GC horizon back;
// releasing it advances the horizon to the newest published commit.
func TestSnapshotHorizonTracking(t *testing.T) {
	e := openWalEnv(t, t.TempDir(), wal.Options{})
	defer e.wal.Close()
	e.createTable(t, "t")

	reader := e.mgr.BeginReadOnly()
	snapScan(t, e, reader, "t")
	pinned := e.mgr.OldestSnapshot()

	w := e.mgr.Begin()
	if _, err := w.Insert("t", []types.Value{types.Str("a"), types.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}

	if got := e.mgr.OldestSnapshot(); got != pinned {
		t.Fatalf("horizon moved past a pinned snapshot: %d -> %d", pinned, got)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, want := e.mgr.OldestSnapshot(), e.mgr.LastVisible(); got != want {
		t.Fatalf("horizon after release = %d, want %d", got, want)
	}
}

// TestNoTornSnapshots hammers group commit with transactions that update
// two rows to the same value; every concurrent snapshot must observe the
// rows equal — a snapshot can never split a commit, or observe commit N+1
// from a group-commit batch without commit N.
func TestNoTornSnapshots(t *testing.T) {
	e := openWalEnv(t, t.TempDir(), wal.Options{})
	defer e.wal.Close()
	e.createTable(t, "t")

	seed := e.mgr.Begin()
	for _, k := range []string{"a", "b"} {
		if _, err := seed.Insert("t", []types.Value{types.Str(k), types.Int(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	const writers, commitsPer = 4, 40
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup

	write := func() {
		defer wg.Done()
		for i := 0; i < commitsPer; i++ {
			v := next.Add(1)
			tx := e.mgr.Begin()
			tbl, err := tx.WriteTable("t")
			if err != nil {
				t.Error(err)
				return
			}
			var heads []*storage.Record
			tbl.Scan(func(r *storage.Record) bool {
				heads = append(heads, r)
				return true
			})
			for _, r := range heads {
				if _, err := tx.Update("t", r, []types.Value{r.Value(0), types.Int(v)}); err != nil {
					t.Error(err)
					return
				}
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
				return
			}
		}
	}
	read := func() {
		defer wg.Done()
		for n := 0; !stop.Load(); n++ {
			tx := e.mgr.BeginReadOnly()
			got := snapScan(t, e, tx, "t")
			if got["a"] != got["b"] {
				t.Errorf("torn snapshot: a=%d b=%d", got["a"], got["b"])
			}
			if err := tx.Commit(); err != nil {
				t.Error(err)
			}
			if n%16 == 15 {
				e.mgr.RunVersionGC()
			}
		}
	}

	wg.Add(writers)
	for i := 0; i < writers; i++ {
		go write()
	}
	readersDone := make(chan struct{})
	wg.Add(2)
	go read()
	go read()
	go func() {
		wg.Wait()
		close(readersDone)
	}()

	// Writers finish first; then release the readers.
	deadline := time.After(30 * time.Second)
	for {
		if next.Load() >= writers*commitsPer {
			stop.Store(true)
		}
		select {
		case <-readersDone:
		case <-deadline:
			t.Fatal("timed out waiting for workload")
		default:
			time.Sleep(time.Millisecond)
			continue
		}
		break
	}

	// After everything commits, a fresh snapshot sees the final value and
	// GC at the released horizon reclaims the whole chain.
	e.mgr.RunVersionGC()
	final := e.mgr.BeginReadOnly()
	got := snapScan(t, e, final, "t")
	if got["a"] != got["b"] {
		t.Fatalf("final snapshot torn: %v", got)
	}
	if err := final.Commit(); err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.store.Get("t")
	if held := tbl.VersionStats(); held != 0 {
		t.Fatalf("versions retained after quiesced GC = %d, want 0", held)
	}
}

// TestAbortedUpdateThenUpdateReadsRowOnce is the torn-snapshot regression:
// update, abort, then a second update of the same row. The aborted copy used
// to stay in the retired set still chained to the relinked original, so once
// the original was superseded again a snapshot reached it twice — through
// the new head's chain and through the orphan — until the next GC. Every
// snapshot, before and after the second update commits, must get each row
// exactly once from both the scan and the index probe.
func TestAbortedUpdateThenUpdateReadsRowOnce(t *testing.T) {
	e := openWalEnv(t, t.TempDir(), wal.Options{})
	defer e.wal.Close()
	e.createTable(t, "t")
	tbl, _ := e.store.Get("t")
	if err := tbl.CreateIndex("k", index.Hash); err != nil {
		t.Fatal(err)
	}

	seed := e.mgr.Begin()
	recs := map[string]*storage.Record{}
	for _, k := range []string{"a", "b"} {
		r, err := seed.Insert("t", []types.Value{types.Str(k), types.Int(10)})
		if err != nil {
			t.Fatal(err)
		}
		recs[k] = r
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	// readOnce reads through tx's snapshot and fails if any row comes back
	// twice or with the wrong value.
	readOnce := func(when string, tx *txn.Txn, wantA int64) {
		t.Helper()
		snap, me, ok := tx.SnapshotRead()
		if !ok {
			t.Fatal("transaction is not reading from a snapshot")
		}
		seen := map[string][]int64{}
		tbl.ScanSnapshot(snap, me, func(r *storage.Record) bool {
			seen[r.Value(0).Str()] = append(seen[r.Value(0).Str()], r.Value(1).Int())
			return true
		})
		for k, want := range map[string]int64{"a": wantA, "b": 10} {
			if got := seen[k]; len(got) != 1 || got[0] != want {
				t.Errorf("%s: scan at snapshot %d returned %s = %v, want [%d]", when, snap, k, got, want)
			}
			probe, ok := tbl.LookupSnapshot("k", types.Str(k), snap, me, nil)
			if !ok || len(probe) != 1 || probe[0].Value(1).Int() != want {
				t.Errorf("%s: probe at snapshot %d returned %d versions of %s (ok=%v), want one = %d",
					when, snap, len(probe), k, ok, want)
			}
		}
	}

	aborted := e.mgr.Begin()
	if _, err := aborted.Update("t", recs["a"], []types.Value{types.Str("a"), types.Int(99)}); err != nil {
		t.Fatal(err)
	}
	if err := aborted.Abort(); err != nil {
		t.Fatal(err)
	}
	before := e.mgr.BeginReadOnly()
	readOnce("after the abort", before, 10)

	second := e.mgr.Begin()
	if _, err := second.Update("t", recs["a"], []types.Value{types.Str("a"), types.Int(11)}); err != nil {
		t.Fatal(err)
	}
	readOnce("second update in flight, old snapshot", before, 10)
	inflight := e.mgr.BeginReadOnly()
	readOnce("second update in flight, new snapshot", inflight, 10)
	if err := second.Commit(); err != nil {
		t.Fatal(err)
	}
	readOnce("second update committed, old snapshot", before, 10)
	readOnce("second update committed, mid snapshot", inflight, 10)
	after := e.mgr.BeginReadOnly()
	readOnce("second update committed, new snapshot", after, 11)

	for _, tx := range []*txn.Txn{before, inflight, after} {
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	e.mgr.RunVersionGC()
	if got := tbl.VersionStats(); got != 0 {
		t.Errorf("versions retained with no snapshot out = %d, want 0", got)
	}
}
