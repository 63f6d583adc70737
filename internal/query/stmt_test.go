package query

import (
	"fmt"
	"runtime/debug"
	"testing"

	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

func TestInsertStmt(t *testing.T) {
	mgr := env(t)
	tx := mgr.Begin()
	s := &InsertStmt{Table: "stocks", Rows: [][]types.Value{
		{types.Str("S4"), types.Float(60)},
		{types.Str("S5"), types.Float(70)},
	}}
	n, err := s.Run(tx)
	if err != nil || n != 2 {
		t.Fatalf("insert = %d, %v", n, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tbl, _ := mgr.Store.Get("stocks")
	if tbl.Len() != 5 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

func TestInsertStmtBadRow(t *testing.T) {
	mgr := env(t)
	tx := mgr.Begin()
	s := &InsertStmt{Table: "stocks", Rows: [][]types.Value{{types.Int(1)}}}
	if _, err := s.Run(tx); err == nil {
		t.Error("bad row accepted")
	}
	tx.Abort()
}

func TestUpdateStmtIncrement(t *testing.T) {
	mgr := env(t)
	tx := mgr.Begin()
	// The paper's incremental maintenance form:
	// update comp_prices set price += 1.5 where comp = 'C1'.
	s := &UpdateStmt{
		Table: "comp_prices",
		Set:   []SetClause{{Col: "price", Expr: Const(types.Float(1.5)), AddTo: true}},
		Where: []Pred{Eq(Col("comp"), Const(types.Str("C1")))},
	}
	n, err := s.Run(tx)
	if err != nil || n != 1 {
		t.Fatalf("update = %d, %v", n, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tbl, _ := mgr.Store.Get("comp_prices")
	var got float64
	tbl.Scan(func(r *storage.Record) bool {
		if r.Value(0).Str() == "C1" {
			got = r.Value(1).Float()
		}
		return true
	})
	if got != 41.5 {
		t.Errorf("C1 price = %g, want 41.5", got)
	}
}

func TestUpdateStmtExpression(t *testing.T) {
	mgr := env(t)
	tx := mgr.Begin()
	s := &UpdateStmt{
		Table: "stocks",
		Set:   []SetClause{{Col: "price", Expr: Arith(Col("price"), '*', Const(types.Float(2)))}},
	}
	n, err := s.Run(tx)
	if err != nil || n != 3 {
		t.Fatalf("update all = %d, %v", n, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tbl, _ := mgr.Store.Get("stocks")
	sum := 0.0
	tbl.Scan(func(r *storage.Record) bool { sum += r.Value(1).Float(); return true })
	if sum != 240 {
		t.Errorf("sum after doubling = %g, want 240", sum)
	}
}

func TestUpdateStmtUsesIndex(t *testing.T) {
	mgr := env(t)
	before := mgr.Meter.Micros()
	tx := mgr.Begin()
	s := &UpdateStmt{
		Table: "stocks",
		Set:   []SetClause{{Col: "price", Expr: Const(types.Float(31))}},
		Where: []Pred{Eq(Col("symbol"), Const(types.Str("S1")))},
	}
	if _, err := s.Run(tx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	charged := mgr.Meter.Micros() - before
	model := mgr.Model
	// Index path: no per-row ScanRow charges for the other two stocks.
	maxExpected := model.BeginTxn + model.StmtSetup + model.GetLock + model.OpenCursor +
		model.IndexProbe + model.FetchCursor + model.CloseCursor + model.UpdateCursor +
		model.CommitTxn + model.ReleaseLock
	if charged > maxExpected {
		t.Errorf("charged %g µs, expected index path ≤ %g", charged, maxExpected)
	}
}

func TestUpdateStmtUnknownColumn(t *testing.T) {
	mgr := env(t)
	tx := mgr.Begin()
	defer tx.Abort()
	s := &UpdateStmt{
		Table: "stocks",
		Set:   []SetClause{{Col: "nope", Expr: Const(types.Float(0))}},
	}
	if _, err := s.Run(tx); err == nil {
		t.Error("unknown SET column accepted")
	}
}

func TestDeleteStmt(t *testing.T) {
	mgr := env(t)
	tx := mgr.Begin()
	s := &DeleteStmt{
		Table: "stocks",
		Where: []Pred{Cmp(Col("price"), GE, Const(types.Float(40)))},
	}
	n, err := s.Run(tx)
	if err != nil || n != 2 {
		t.Fatalf("delete = %d, %v", n, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tbl, _ := mgr.Store.Get("stocks")
	if tbl.Len() != 1 {
		t.Errorf("Len = %d", tbl.Len())
	}
}

func TestDeleteStmtAll(t *testing.T) {
	mgr := env(t)
	tx := mgr.Begin()
	n, err := (&DeleteStmt{Table: "comps_list"}).Run(tx)
	if err != nil || n != 4 {
		t.Fatalf("delete all = %d, %v", n, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestStmtAbortRollsBack(t *testing.T) {
	mgr := env(t)
	tx := mgr.Begin()
	if _, err := (&UpdateStmt{
		Table: "stocks",
		Set:   []SetClause{{Col: "price", Expr: Const(types.Float(0))}},
	}).Run(tx); err != nil {
		t.Fatal(err)
	}
	if _, err := (&DeleteStmt{Table: "comp_prices"}).Run(tx); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	stocks, _ := mgr.Store.Get("stocks")
	sum := 0.0
	stocks.Scan(func(r *storage.Record) bool { sum += r.Value(1).Float(); return true })
	if sum != 120 {
		t.Errorf("stocks sum after abort = %g, want 120", sum)
	}
	cp, _ := mgr.Store.Get("comp_prices")
	if cp.Len() != 2 {
		t.Errorf("comp_prices len after abort = %d, want 2", cp.Len())
	}
}

func TestUpdateDoesNotObserveOwnWrites(t *testing.T) {
	mgr := env(t)
	tx := mgr.Begin()
	// price += 10 where price < 45: S1 (30) and S2 (40) match.
	// If the statement observed its own writes while scanning, S1's new
	// price (40) could match again.
	s := &UpdateStmt{
		Table: "stocks",
		Set:   []SetClause{{Col: "price", Expr: Const(types.Float(10)), AddTo: true}},
		Where: []Pred{Cmp(Col("price"), LT, Const(types.Float(45)))},
	}
	n, err := s.Run(tx)
	if err != nil || n != 2 {
		t.Fatalf("update = %d, %v", n, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	stocks, _ := mgr.Store.Get("stocks")
	got := map[string]float64{}
	stocks.Scan(func(r *storage.Record) bool {
		got[r.Value(0).Str()] = r.Value(1).Float()
		return true
	})
	if got["S1"] != 40 || got["S2"] != 50 || got["S3"] != 50 {
		t.Errorf("prices = %v", got)
	}
}

// discardRows is a RowSink that keeps nothing.
type discardRows struct{}

func (discardRows) Columns([]string) error  { return nil }
func (discardRows) Row([]types.Value) error { return nil }

// A held UPDATE by key — begin, RunParams with the key as its one
// parameter, commit — allocates no more than the same transaction making
// the change with tx.Update directly: finding the target costs nothing on
// the heap. A locked point SELECT in the same shell is logged beside it.
func TestUpdateStmtAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	mgr := env(t)
	tbl, _ := mgr.Store.Get("stocks")
	// update stocks set price += 1.0 where symbol = ?0
	upd := &UpdateStmt{
		Table: "stocks",
		Set:   []SetClause{{Col: "price", Expr: Const(types.Float(1)), AddTo: true}},
		Where: []Pred{Eq(Col("symbol"), Param(0, types.KindString))},
	}
	sel := &Select{
		Items: []SelectItem{Item(Col("price"), "")},
		From:  []string{"stocks"},
		Where: []Pred{Eq(Col("symbol"), Param(0, types.KindString))},
	}
	params := []types.Value{types.Str("S2")}
	shell := func(body func(tx *txn.Txn) error) func() {
		return func() {
			tx := mgr.Begin()
			if err := body(tx); err != nil {
				t.Fatal(err)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	held := shell(func(tx *txn.Txn) error {
		n, err := upd.RunParams(tx, params)
		if err == nil && n != 1 {
			err = fmt.Errorf("updated %d rows", n)
		}
		return err
	})
	direct := shell(func(tx *txn.Txn) error {
		if _, err := tx.WriteIntent("stocks"); err != nil {
			return err
		}
		var buf [1]*storage.Record
		recs, _ := tbl.AppendIndexLookup(buf[:0], "symbol", params[0])
		if err := tx.LockRecordExclusive("stocks", recs[0].ID()); err != nil {
			return err
		}
		vals := recs[0].Values()
		vals[1] = types.Float(vals[1].Float() + 1)
		_, err := tx.Update("stocks", recs[0], vals)
		return err
	})
	point := shell(func(tx *txn.Txn) error { return sel.RunTo(tx, TxnResolver{}, params, discardRows{}) })
	// No GC while measuring: it would empty the pools a run draws on.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	measure := func(f func()) float64 {
		f()
		return testing.AllocsPerRun(200, f)
	}
	got, base, sel1 := measure(held), measure(direct), measure(point)
	t.Logf("held UPDATE %.1f allocs, direct tx.Update %.1f, locked point SELECT %.1f", got, base, sel1)
	if got > 7 {
		t.Errorf("a held UPDATE by key allocates %.1f times per transaction, ceiling 7", got)
	}
}
