package query

import (
	"slices"
	"testing"
	"time"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/cost"
	"github.com/stripdb/strip/internal/index"
	"github.com/stripdb/strip/internal/lock"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

// lockEnv is env with the lock manager exposed, for tests that assert which
// rows the executor locks rather than what it returns.
func lockEnv(t testing.TB) (*txn.Manager, *lock.Manager) {
	t.Helper()
	cat := catalog.New()
	store := storage.NewStore()
	schema := catalog.MustSchema("stocks",
		catalog.Column{Name: "symbol", Kind: types.KindString},
		catalog.Column{Name: "price", Kind: types.KindFloat})
	if err := cat.Define(schema); err != nil {
		t.Fatal(err)
	}
	stocks, err := store.Create(schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := stocks.CreateIndex("symbol", index.Hash); err != nil {
		t.Fatal(err)
	}
	lm := lock.New()
	mgr := txn.NewManager(cat, store, lm, clock.NewVirtual(), cost.NewMeter(), cost.Default())
	tx := mgr.Begin()
	for _, r := range [][]types.Value{
		{types.Str("S1"), types.Float(30)},
		{types.Str("S2"), types.Float(40)},
		{types.Str("S3"), types.Float(50)},
	} {
		if _, err := tx.Insert("stocks", r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return mgr, lm
}

func waitForQueryWaiters(t *testing.T, lm *lock.Manager, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for lm.Stats().Waits < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d lock waiters (stats %+v)", n, lm.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func updateSymbol(tx *txn.Txn, sym string, price float64) (int, error) {
	stmt := &UpdateStmt{
		Table: "stocks",
		Set:   []SetClause{{Col: "price", Expr: Const(types.Float(price))}},
		Where: []Pred{Eq(Col("symbol"), Const(types.Str(sym)))},
	}
	return stmt.Run(tx)
}

// An indexed UPDATE locks only the probed row: a writer on a different
// symbol commits without waiting, while a writer on the same symbol blocks
// until the first transaction releases.
func TestUpdateProbeLocksOnlyProbedRow(t *testing.T) {
	mgr, lm := lockEnv(t)

	tx1 := mgr.Begin()
	if n, err := updateSymbol(tx1, "S1", 31); err != nil || n != 1 {
		t.Fatalf("update S1: n=%d err=%v", n, err)
	}

	// Disjoint row: completes while tx1 still holds S1's record X.
	tx2 := mgr.Begin()
	if n, err := updateSymbol(tx2, "S2", 41); err != nil || n != 1 {
		t.Fatalf("update S2: n=%d err=%v", n, err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if w := lm.Stats().Waits; w != 0 {
		t.Fatalf("disjoint-row update waited %d times", w)
	}

	// Same row: must block until tx1 commits.
	done := make(chan error, 1)
	go func() {
		tx3 := mgr.Begin()
		if _, err := updateSymbol(tx3, "S1", 32); err != nil {
			done <- err
			return
		}
		done <- tx3.Commit()
	}()
	waitForQueryWaiters(t, lm, 1)
	select {
	case err := <-done:
		t.Fatalf("same-row update did not block (err=%v)", err)
	default:
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// An indexed SELECT takes IS plus a shared lock on just the probed row, so
// a concurrent writer on another row proceeds while a writer on the probed
// row waits.
func TestSelectProbeLocksOnlyProbedRow(t *testing.T) {
	mgr, lm := lockEnv(t)

	tx1 := mgr.Begin()
	q := &Select{
		Items: []SelectItem{Item(Col("price"), "")},
		From:  []string{"stocks"},
		Where: []Pred{Eq(Col("symbol"), Const(types.Str("S1")))},
	}
	res, err := q.Run(tx1, TxnResolver{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("probe returned %d rows", res.Len())
	}
	res.Retire()

	tx2 := mgr.Begin()
	if n, err := updateSymbol(tx2, "S2", 41); err != nil || n != 1 {
		t.Fatalf("update S2: n=%d err=%v", n, err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if w := lm.Stats().Waits; w != 0 {
		t.Fatalf("reader's probe blocked a disjoint writer (%d waits)", w)
	}

	done := make(chan error, 1)
	go func() {
		tx3 := mgr.Begin()
		if _, err := updateSymbol(tx3, "S1", 33); err != nil {
			done <- err
			return
		}
		done <- tx3.Commit()
	}()
	waitForQueryWaiters(t, lm, 1)
	select {
	case err := <-done:
		t.Fatalf("same-row writer did not block behind probe S lock (err=%v)", err)
	default:
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// A SELECT with no usable index escalates to a full table S, which must
// wait for a record-granularity writer rather than race past it.
func TestScanSelectBlocksOnRecordWriter(t *testing.T) {
	mgr, lm := lockEnv(t)

	tx1 := mgr.Begin()
	if n, err := updateSymbol(tx1, "S1", 31); err != nil || n != 1 {
		t.Fatalf("update S1: n=%d err=%v", n, err)
	}

	done := make(chan error, 1)
	go func() {
		tx2 := mgr.Begin()
		q := &Select{
			Items: []SelectItem{Item(Col("symbol"), "")},
			From:  []string{"stocks"},
		}
		res, err := q.Run(tx2, TxnResolver{})
		if err != nil {
			done <- err
			return
		}
		res.Retire()
		done <- tx2.Commit()
	}()
	waitForQueryWaiters(t, lm, 1)
	select {
	case err := <-done:
		t.Fatalf("full scan did not block behind record writer (err=%v)", err)
	default:
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func symbolsOf(recs []*storage.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Value(0).Str()
	}
	slices.Sort(out)
	return out
}

// fetchRecords returns the same records whichever way it reaches them: as a
// reader or a writer, through the index or by scanning, at the
// transaction's snapshot or under locks. Only a reader at a snapshot holds
// no lock afterwards; a probe holds the table intent and its row, a scan the
// whole table.
func TestFetchRecords(t *testing.T) {
	for _, mode := range []lock.Mode{lock.Shared, lock.Exclusive} {
		for _, col := range []string{"symbol", ""} {
			for _, snapshot := range []bool{false, true} {
				mgr, lm := lockEnv(t)
				tbl, _ := mgr.Store.Get("stocks")
				src := &source{name: "stocks", schema: tbl.Schema(), tbl: tbl}
				want, wantLocks := []string{"S1", "S2", "S3"}, 1
				if col != "" {
					want, wantLocks = []string{"S2"}, 2
				}
				tx := mgr.Begin()
				if snapshot {
					tx.EnableSnapshotReads()
					if mode == lock.Shared {
						wantLocks = 0
					}
				}
				// A dirty buffer: the leaf empties it.
				recs, err := fetchRecords(tx, src, mode, col, types.Str("S2"), make([]*storage.Record, 2))
				if err != nil {
					t.Fatal(err)
				}
				if got := symbolsOf(recs); !slices.Equal(got, want) {
					t.Errorf("mode %v col %q snapshot %v: records %v, want %v", mode, col, snapshot, got, want)
				}
				if got := lm.ActiveLocks(); got != wantLocks {
					t.Errorf("mode %v col %q snapshot %v: %d locks held, want %d", mode, col, snapshot, got, wantLocks)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// A probe that waits for its row's lock behind a writer has the version the
// index held before the writer ran. Once granted it must notice that the
// version is stale and probe again: it returns the writer's replacement, or
// nothing when the writer deleted the row.
func TestFetchRecordsRetriesStaleProbe(t *testing.T) {
	for _, mode := range []lock.Mode{lock.Shared, lock.Exclusive} {
		for _, del := range []bool{false, true} {
			mgr, lm := lockEnv(t)
			tbl, _ := mgr.Store.Get("stocks")
			src := &source{name: "stocks", schema: tbl.Schema(), tbl: tbl}
			old, _ := tbl.IndexLookup("symbol", types.Str("S1"))

			writer := mgr.Begin()
			if err := writer.LockRecordExclusive("stocks", old[0].ID()); err != nil {
				t.Fatal(err)
			}
			type result struct {
				recs []*storage.Record
				err  error
			}
			done := make(chan result, 1)
			tx := mgr.Begin()
			go func() {
				recs, err := fetchRecords(tx, src, mode, "symbol", types.Str("S1"), nil)
				done <- result{recs, err}
			}()
			waitForQueryWaiters(t, lm, 1)
			var err error
			if del {
				err = writer.Delete("stocks", old[0])
			} else {
				_, err = writer.Update("stocks", old[0], []types.Value{types.Str("S1"), types.Float(31)})
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := writer.Commit(); err != nil {
				t.Fatal(err)
			}
			res := <-done
			if res.err != nil {
				t.Fatal(res.err)
			}
			switch {
			case del && len(res.recs) != 0:
				t.Errorf("mode %v: probe returned %d records of a deleted row", mode, len(res.recs))
			case !del && (len(res.recs) != 1 || !res.recs[0].Live() || res.recs[0].Value(1).Float() != 31):
				t.Errorf("mode %v: probe returned %v, want the live replacement at 31", mode, res.recs)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
