package query

import (
	"fmt"
	"sync"
	"testing"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/obs"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/types"
)

// Rules re-run their condition queries on every firing; Run must not
// mutate the caller's Select (resolution state, star expansion).
func TestSelectReusableAcrossRuns(t *testing.T) {
	mgr := env(t)
	q := &Select{
		Items: []SelectItem{
			Item(QCol("comps_list", "comp"), ""),
			Item(Arith(QCol("stocks", "price"), '*', QCol("comps_list", "weight")), "wp"),
		},
		From:  []string{"stocks", "comps_list"},
		Where: []Pred{Eq(QCol("comps_list", "symbol"), QCol("stocks", "symbol"))},
	}
	for i := 0; i < 3; i++ {
		tx := mgr.Begin()
		res, err := q.Run(tx, TxnResolver{})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.Len() != 4 {
			t.Fatalf("run %d: %d rows", i, res.Len())
		}
		res.Retire()
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if len(q.Items) != 2 {
		t.Errorf("caller's Items mutated: %d", len(q.Items))
	}
}

func TestStarReusableAcrossRuns(t *testing.T) {
	mgr := env(t)
	q := &Select{Star: true, From: []string{"stocks"}}
	for i := 0; i < 3; i++ {
		tx := mgr.Begin()
		res, err := q.Run(tx, TxnResolver{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Schema().NumCols() != 2 {
			t.Fatalf("run %d: star expanded to %d cols", i, res.Schema().NumCols())
		}
		res.Retire()
		tx.Commit()
	}
	if len(q.Items) != 0 {
		t.Errorf("star expansion leaked into caller: %d items", len(q.Items))
	}
	// Star with explicit items is rejected.
	bad := &Select{Star: true, Items: []SelectItem{Item(Col("symbol"), "")}, From: []string{"stocks"}}
	tx := mgr.Begin()
	defer tx.Commit()
	if _, err := bad.Run(tx, TxnResolver{}); err == nil {
		t.Error("star mixed with items accepted")
	}
}

// Concurrent runs of one shared Select must be safe (live mode fires the
// same rule from many committing transactions).
func TestSelectConcurrentRuns(t *testing.T) {
	mgr := env(t)
	q := &Select{
		Items: []SelectItem{Item(Col("comp"), ""), Item(Col("weight"), "")},
		From:  []string{"comps_list"},
		Where: []Pred{Cmp(Col("weight"), GT, Const(types.Float(0)))},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				tx := mgr.Begin()
				res, err := q.Run(tx, TxnResolver{})
				if err != nil {
					errs <- err
					tx.Abort()
					return
				}
				if res.Len() != 4 {
					errs <- errWrongRows
				}
				res.Retire()
				tx.Commit()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var errWrongRows = errType("wrong row count")

type errType string

func (e errType) Error() string { return string(e) }

// Repeated identical queries — the shape a rule's evaluate query takes —
// must reuse the cached immutable plan: one build, then hits, until a
// source changes shape (row-count magnitude, index count, planner mode).
func TestPlanCacheReuse(t *testing.T) {
	mgr := env(t)
	builds := mgr.Obs.Counter(obs.MQueryPlanBuilds)
	hits := mgr.Obs.Counter(obs.MQueryPlanHits)
	q := &Select{
		Items: []SelectItem{
			Item(QCol("comps_list", "comp"), ""),
			Item(QCol("stocks", "price"), "price"),
		},
		From:  []string{"stocks", "comps_list"},
		Where: []Pred{Eq(QCol("comps_list", "symbol"), QCol("stocks", "symbol"))},
	}
	run := func() {
		t.Helper()
		tx := mgr.Begin()
		res, err := q.Run(tx, TxnResolver{})
		if err != nil {
			t.Fatal(err)
		}
		res.Retire()
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	b0, h0 := builds.Load(), hits.Load()
	for i := 0; i < 5; i++ {
		run()
	}
	if got := builds.Load() - b0; got != 1 {
		t.Fatalf("plan builds = %d, want 1", got)
	}
	if got := hits.Load() - h0; got != 4 {
		t.Fatalf("plan hits = %d, want 4", got)
	}

	// Growing a source past its log2 row bucket invalidates the signature:
	// the next run replans, later runs hit again.
	tx := mgr.Begin()
	for i := 0; i < 64; i++ {
		if _, err := tx.Insert("stocks", []types.Value{
			types.Str(fmt.Sprintf("G%03d", i)), types.Float(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	b1 := builds.Load()
	run()
	run()
	if got := builds.Load() - b1; got != 1 {
		t.Fatalf("plan builds after growth = %d, want 1", got)
	}

	// A warm plan is shared by concurrent runs without rebuilding.
	b3 := builds.Load()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				tx := mgr.Begin()
				res, err := q.Run(tx, TxnResolver{})
				if err == nil {
					res.Retire()
					tx.Commit()
				} else {
					tx.Abort()
				}
			}
		}()
	}
	wg.Wait()
	if got := builds.Load() - b3; got != 0 {
		t.Fatalf("concurrent warm runs rebuilt %d times, want 0", got)
	}
}

// A rule's condition or action query sees a bound table of one row on one
// firing and two or three on the next. Small temp sources share a plan
// signature, so the flips cost one build, not one per firing; a bound table
// that really grows (a wide batching window) still re-plans.
func TestPlanCacheSmallTempSourcesShareAPlan(t *testing.T) {
	mgr := env(t)
	builds := mgr.Obs.Counter(obs.MQueryPlanBuilds)
	q := &Select{
		Items: []SelectItem{
			Item(QCol("comps_list", "comp"), ""),
			Item(QCol("new", "price"), "new_price"),
		},
		From:  []string{"new", "comps_list"},
		Where: []Pred{Eq(QCol("comps_list", "symbol"), QCol("new", "symbol"))},
	}
	run := func(rows int) {
		t.Helper()
		bound := storage.NewValueTempTable(catalog.MustSchema("new",
			catalog.Column{Name: "symbol", Kind: types.KindString},
			catalog.Column{Name: "price", Kind: types.KindFloat}))
		for i := 0; i < rows; i++ {
			if err := bound.AppendValues(types.Str("S1"), types.Float(float64(i))); err != nil {
				t.Fatal(err)
			}
		}
		tx := mgr.Begin()
		out, err := q.Run(tx, mixedResolver{tmp: map[string]*storage.TempTable{"new": bound}})
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != 2*rows { // S1 is in C1 and C2
			t.Fatalf("%d bound rows joined to %d, want %d", rows, out.Len(), 2*rows)
		}
		out.Retire()
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	b0 := builds.Load()
	for i := 0; i < 10; i++ {
		run(1 + i%2)
		run(3)
	}
	if got := builds.Load() - b0; got != 1 {
		t.Fatalf("alternating 1-, 2- and 3-row bound tables built %d plans, want 1", got)
	}
	run(64)
	if got := builds.Load() - b0; got != 2 {
		t.Fatalf("a 64-row bound table left %d builds, want a second", got)
	}
}
