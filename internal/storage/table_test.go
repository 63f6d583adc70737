package storage

import (
	"math"
	"testing"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/index"
	"github.com/stripdb/strip/internal/types"
)

func stocksTable(t *testing.T) *Table {
	t.Helper()
	s := catalog.MustSchema("stocks",
		catalog.Column{Name: "symbol", Kind: types.KindString},
		catalog.Column{Name: "price", Kind: types.KindFloat},
	)
	return NewTable(s)
}

func mustInsert(t *testing.T, tbl *Table, vals ...types.Value) *Record {
	t.Helper()
	r, err := tbl.Insert(vals)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func scanSymbols(tbl *Table) []string {
	var out []string
	tbl.Scan(func(r *Record) bool {
		out = append(out, r.Value(0).Str())
		return true
	})
	return out
}

func TestInsertScan(t *testing.T) {
	tbl := stocksTable(t)
	mustInsert(t, tbl, types.Str("IBM"), types.Float(30))
	mustInsert(t, tbl, types.Str("HP"), types.Float(40))
	mustInsert(t, tbl, types.Str("GE"), types.Float(50))
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	got := scanSymbols(tbl)
	want := []string{"IBM", "HP", "GE"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan order = %v, want %v", got, want)
		}
	}
}

func TestInsertBadRow(t *testing.T) {
	tbl := stocksTable(t)
	if _, err := tbl.Insert([]types.Value{types.Int(1), types.Float(1)}); err == nil {
		t.Error("kind-mismatched insert accepted")
	}
	if _, err := tbl.Insert([]types.Value{types.Str("X")}); err == nil {
		t.Error("short insert accepted")
	}
}

func TestIntWideningOnInsert(t *testing.T) {
	tbl := stocksTable(t)
	r := mustInsert(t, tbl, types.Str("IBM"), types.Int(30))
	if r.Value(1).Kind() != types.KindFloat || r.Value(1).Float() != 30.0 {
		t.Errorf("int not widened to float: %v", r.Value(1))
	}
}

func TestDelete(t *testing.T) {
	tbl := stocksTable(t)
	a := mustInsert(t, tbl, types.Str("A"), types.Float(1))
	b := mustInsert(t, tbl, types.Str("B"), types.Float(2))
	c := mustInsert(t, tbl, types.Str("C"), types.Float(3))

	if err := tbl.Delete(b); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 || b.Live() {
		t.Fatal("delete did not unlink")
	}
	if got := scanSymbols(tbl); len(got) != 2 || got[0] != "A" || got[1] != "C" {
		t.Fatalf("scan after delete = %v", got)
	}
	if err := tbl.Delete(b); err == nil {
		t.Error("double delete accepted")
	}
	// Deleting head and tail updates list ends.
	if err := tbl.Delete(a); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(c); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 0 {
		t.Fatalf("Len after deleting all = %d", tbl.Len())
	}
	mustInsert(t, tbl, types.Str("D"), types.Float(4))
	if got := scanSymbols(tbl); len(got) != 1 || got[0] != "D" {
		t.Fatalf("insert after emptying = %v", got)
	}
}

func TestDeleteForeignRecord(t *testing.T) {
	t1, t2 := stocksTable(t), stocksTable(t)
	r := mustInsert(t, t1, types.Str("A"), types.Float(1))
	if err := t2.Delete(r); err == nil {
		t.Error("deleting foreign record accepted")
	}
}

func TestUpdateCopyOnWrite(t *testing.T) {
	tbl := stocksTable(t)
	old := mustInsert(t, tbl, types.Str("IBM"), types.Float(30))
	nr, err := tbl.Update(old, []types.Value{types.Str("IBM"), types.Float(31)})
	if err != nil {
		t.Fatal(err)
	}
	if nr == old {
		t.Fatal("update mutated record in place")
	}
	if old.Live() || !nr.Live() {
		t.Error("liveness after update wrong")
	}
	// The old record must keep its pre-update image (bound tables rely on it).
	if old.Value(1).Float() != 30 || nr.Value(1).Float() != 31 {
		t.Error("old/new images wrong")
	}
	if tbl.Len() != 1 {
		t.Errorf("Len after update = %d", tbl.Len())
	}
	st := tbl.Stats()
	if st.Inserts != 1 || st.Updates != 1 || st.Deletes != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRelinkRestoresRecord(t *testing.T) {
	tbl := stocksTable(t)
	a := mustInsert(t, tbl, types.Str("A"), types.Float(1))
	mustInsert(t, tbl, types.Str("B"), types.Float(2))
	if err := tbl.Delete(a); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Relink(a); err != nil {
		t.Fatal(err)
	}
	if !a.Live() || tbl.Len() != 2 {
		t.Fatal("relink failed")
	}
	// Relinked records are appended at the tail.
	if got := scanSymbols(tbl); got[1] != "A" {
		t.Errorf("scan after relink = %v", got)
	}
	if err := tbl.Relink(a); err == nil {
		t.Error("relinking a live record accepted")
	}
}

func TestIndexMaintenance(t *testing.T) {
	tbl := stocksTable(t)
	mustInsert(t, tbl, types.Str("IBM"), types.Float(30))
	if err := tbl.CreateIndex("symbol", index.Hash); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("symbol", index.Hash); err == nil {
		t.Error("duplicate index accepted")
	}
	if err := tbl.CreateIndex("nope", index.Hash); err == nil {
		t.Error("index on missing column accepted")
	}
	if !tbl.HasIndex("symbol") || tbl.HasIndex("price") {
		t.Error("HasIndex wrong")
	}
	// Index built from existing rows.
	recs, ok := tbl.IndexLookup("symbol", types.Str("IBM"))
	if !ok || len(recs) != 1 {
		t.Fatalf("lookup after backfill: ok=%v n=%d", ok, len(recs))
	}
	// Maintained across insert/update/delete.
	r2 := mustInsert(t, tbl, types.Str("HP"), types.Float(40))
	r3, err := tbl.Update(r2, []types.Value{types.Str("HPQ"), types.Float(41)})
	if err != nil {
		t.Fatal(err)
	}
	if recs, _ := tbl.IndexLookup("symbol", types.Str("HP")); len(recs) != 0 {
		t.Error("stale index entry after update")
	}
	if recs, _ := tbl.IndexLookup("symbol", types.Str("HPQ")); len(recs) != 1 || recs[0] != r3 {
		t.Error("index missing updated record")
	}
	if err := tbl.Delete(r3); err != nil {
		t.Fatal(err)
	}
	if recs, _ := tbl.IndexLookup("symbol", types.Str("HPQ")); len(recs) != 0 {
		t.Error("stale index entry after delete")
	}
	if _, ok := tbl.IndexLookup("price", types.Float(30)); ok {
		t.Error("lookup on unindexed column reported ok")
	}
}

func TestRetiredHeldAccounting(t *testing.T) {
	tbl := stocksTable(t)
	r := mustInsert(t, tbl, types.Str("IBM"), types.Float(30))
	r.Pin()
	if _, err := tbl.Update(r, []types.Value{types.Str("IBM"), types.Float(31)}); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Stats().RetiredHeld; got != 1 {
		t.Fatalf("RetiredHeld after update of pinned record = %d", got)
	}
	r.Unpin()
	if got := tbl.Stats().RetiredHeld; got != 0 {
		t.Fatalf("RetiredHeld after unpin = %d", got)
	}
}

func TestUnpinUnderflowPanics(t *testing.T) {
	tbl := stocksTable(t)
	r := mustInsert(t, tbl, types.Str("IBM"), types.Float(30))
	defer func() {
		if recover() == nil {
			t.Error("unpin underflow did not panic")
		}
	}()
	r.Unpin()
}

func TestScanEarlyStop(t *testing.T) {
	tbl := stocksTable(t)
	for i := 0; i < 5; i++ {
		mustInsert(t, tbl, types.Str("S"), types.Float(float64(i)))
	}
	n := 0
	tbl.Scan(func(*Record) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestRecordValues(t *testing.T) {
	tbl := stocksTable(t)
	r := mustInsert(t, tbl, types.Str("IBM"), types.Float(30))
	vals := r.Values()
	vals[0] = types.Str("mutated")
	if r.Value(0).Str() != "IBM" {
		t.Error("Values aliases record storage")
	}
	if r.NumCols() != 2 || r.Table() != tbl {
		t.Error("NumCols/Table wrong")
	}
}

// TestProbeKeyKinds: a probe finds what a scan's numeric comparison finds,
// whatever the key's kind: INT keys on a FLOAT column, FLOAT keys holding an
// exact int64 on an INT column; other FLOAT keys on an INT column (3.5, NaN,
// ±Inf, out of int64 range) find nothing.
func TestProbeKeyKinds(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	s := catalog.MustSchema("t",
		catalog.Column{Name: "id", Kind: types.KindInt},
		catalog.Column{Name: "f", Kind: types.KindFloat})
	for _, kind := range []index.Kind{index.Hash, index.RedBlack} {
		tbl := NewTable(s)
		for _, col := range []string{"id", "f"} {
			if err := tbl.CreateIndex(col, kind); err != nil {
				t.Fatal(err)
			}
		}
		mustInsert(t, tbl, types.Int(3), types.Int(3))
		mustInsert(t, tbl, types.Int(4), types.Float(4.5))
		mustInsert(t, tbl, types.Int(math.MinInt64), types.Float(-1))
		for _, c := range []struct {
			col  string
			key  types.Value
			want int
		}{
			{"f", types.Int(3), 1},
			{"f", types.Float(3), 1},
			{"f", types.Int(4), 0},
			{"id", types.Float(3), 1},
			{"id", types.Float(3.5), 0},
			{"id", types.Float(nan), 0},
			{"id", types.Float(inf), 0},
			{"id", types.Float(1 << 63), 0},
			{"id", types.Float(-(1 << 63)), 1},
			{"id", types.Str("3"), 0},
		} {
			live, ok := tbl.IndexLookup(c.col, c.key)
			snap, exact := tbl.LookupSnapshot(c.col, c.key, BootstrapLSN, 0, nil)
			if !ok || !exact || len(live) != c.want || len(snap) != c.want {
				t.Errorf("%v index on %s, key %v (%s): live %d (ok %v), snapshot %d (exact %v), want %d",
					kind, c.col, c.key, c.key.Kind(), len(live), ok, len(snap), exact, c.want)
			}
		}
	}
}
