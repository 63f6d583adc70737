package query

import (
	"fmt"
	"sync"
	"testing"

	"github.com/stripdb/strip/internal/types"
)

// One prepared UPDATE and one prepared SELECT, shared by eight goroutines
// that each run them with their own parameters against their own rows: a
// statement is immutable once built, its bound plan holds no run state, and
// every run's values travel in the run. (Run under -race: UpdateStmt.Run
// used to resolve the statement's own column references on every call.)
func TestPreparedStatementsSharedAcrossGoroutines(t *testing.T) {
	mgr := env(t)
	const workers, rounds = 8, 50
	tx := mgr.Begin()
	for w := 0; w < workers; w++ {
		if _, err := tx.Insert("stocks", []types.Value{types.Str(fmt.Sprintf("W%d", w)), types.Float(0)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// update stocks set price = price + ?0 where symbol = ?1
	upd := &UpdateStmt{
		Table: "stocks",
		Set:   []SetClause{{Col: "price", Expr: Arith(Col("price"), '+', Param(0, types.KindFloat))}},
		Where: []Pred{Eq(Col("symbol"), Param(1, types.KindString))},
	}
	// select symbol, price, ?0 as tag from stocks where symbol = ?1 and price >= ?2
	sel := &Select{
		Items: []SelectItem{Item(Col("symbol"), ""), Item(Col("price"), ""), Item(Param(0, types.KindInt), "tag")},
		From:  []string{"stocks"},
		Where: []Pred{Eq(Col("symbol"), Param(1, types.KindString)), Cmp(Col("price"), GE, Param(2, types.KindFloat))},
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			me, step := types.Str(fmt.Sprintf("W%d", w)), float64(w+1)
			for i := 1; i <= rounds; i++ {
				tx := mgr.Begin()
				n, err := upd.RunParams(tx, []types.Value{types.Float(step), me})
				if err == nil {
					err = tx.Commit()
				} else {
					tx.Abort() //nolint:errcheck // already failing
				}
				if err != nil || n != 1 {
					t.Errorf("worker %d round %d: update changed %d rows: %v", w, i, n, err)
					return
				}
				// The worker's own oracle: its row holds i steps, and is the
				// only row its parameters select.
				want := step * float64(i)
				ro := mgr.BeginReadOnly()
				out, err := sel.RunParams(ro, TxnResolver{}, []types.Value{types.Int(int64(w)), me, types.Float(want)})
				if err != nil {
					t.Errorf("worker %d round %d: %v", w, i, err)
					return
				}
				got := rows(out)
				out.Retire()
				ro.Commit() //nolint:errcheck // read-only
				if len(got) != 1 || got[0][0] != me || got[0][1].Float() != want || got[0][2].Int() != int64(w) {
					t.Errorf("worker %d round %d: read %v, want [%v %v %d]", w, i, got, me, want, w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// A run that supplies fewer values than the statement has placeholders is
// refused, not a crash.
func TestPreparedStatementTooFewParams(t *testing.T) {
	mgr := env(t)
	tx := mgr.Begin()
	defer tx.Abort() //nolint:errcheck
	sel := &Select{Items: []SelectItem{Item(Col("symbol"), "")}, From: []string{"stocks"},
		Where: []Pred{Eq(Col("symbol"), Param(1, types.KindString))}}
	if _, err := sel.RunParams(tx, TxnResolver{}, []types.Value{types.Str("S1")}); err == nil {
		t.Error("select with placeholder ?1 ran with one value")
	}
	del := &DeleteStmt{Table: "stocks", Where: []Pred{Eq(Col("symbol"), Param(0, types.KindString))}}
	if _, err := del.Run(tx); err == nil {
		t.Error("delete with a placeholder ran with no values")
	}
}
