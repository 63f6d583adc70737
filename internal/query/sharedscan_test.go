package query

import (
	"fmt"
	"sync"
	"testing"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/cost"
	"github.com/stripdb/strip/internal/lock"
	"github.com/stripdb/strip/internal/obs"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

// TestRunSharedBasic: a heterogeneous batch — full scan, filtered scan,
// aggregate, star+order-by — run as ONE snapshot pass must return exactly
// what each query returns running alone, while incrementing the snapshot
// scan counter once for the whole group and touching the lock manager not
// at all.
func TestRunSharedBasic(t *testing.T) {
	mgr, lm := lockEnv(t)

	queries := []*Select{
		{ // full scan
			Items: []SelectItem{Item(Col("symbol"), ""), Item(Col("price"), "")},
			From:  []string{"stocks"},
		},
		{ // residual filter
			Items: []SelectItem{Item(Col("symbol"), "")},
			From:  []string{"stocks"},
			Where: []Pred{Cmp(Col("price"), GT, Const(types.Float(35)))},
		},
		{ // aggregate
			Items: []SelectItem{AggItem(AggSum, Col("price"), "total")},
			From:  []string{"stocks"},
		},
		{ // star + order by
			Star:    true,
			From:    []string{"stocks"},
			OrderBy: []string{"price"},
			Desc:    true,
		},
	}

	// Reference results, per-query, at the same (quiescent) database.
	var want [][][]types.Value
	for _, q := range queries {
		ro := mgr.BeginReadOnly()
		res, err := q.Run(ro, TxnResolver{})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rows(res))
		res.Retire()
		if err := ro.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	scans := mgr.Obs.Counter(obs.MMvccSnapshotScans).Load()
	acquires := lm.Stats().Acquires
	ro := mgr.BeginReadOnly()
	results, snap, err := RunShared(ro, "stocks", queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	if snap == 0 {
		t.Fatal("shared batch reported LSN 0")
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		got := rows(r.Out)
		if fmt.Sprint(got) != fmt.Sprint(want[i]) {
			t.Errorf("query %d:\n got %v\nwant %v", i, got, want[i])
		}
		r.Out.Retire()
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
	if d := mgr.Obs.Counter(obs.MMvccSnapshotScans).Load() - scans; d != 1 {
		t.Errorf("shared batch ran %d snapshot scans, want exactly 1", d)
	}
	if d := lm.Stats().Acquires - acquires; d != 0 {
		t.Errorf("shared batch acquired %d locks, want 0", d)
	}
	if mgr.Obs.Counter(obs.MSharedGroups).Load() == 0 ||
		mgr.Obs.Counter(obs.MSharedQueries).Load() < int64(len(queries)) {
		t.Error("shared.* counters never moved")
	}
}

// sharedWriterEnv builds an accounts table under a real clock for
// concurrency tests: 8 accounts, 100 each, constant total 800.
func sharedWriterEnv(t testing.TB) *txn.Manager {
	t.Helper()
	cat := catalog.New()
	store := storage.NewStore()
	schema := catalog.MustSchema("accounts",
		catalog.Column{Name: "id", Kind: types.KindInt},
		catalog.Column{Name: "balance", Kind: types.KindFloat})
	if err := cat.Define(schema); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Create(schema); err != nil {
		t.Fatal(err)
	}
	mgr := txn.NewManager(cat, store, lock.New(), clock.NewReal(), cost.NewMeter(), cost.Default())
	tx := mgr.Begin()
	for i := 0; i < 8; i++ {
		if _, err := tx.Insert("accounts", []types.Value{types.Int(int64(i)), types.Float(100)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return mgr
}

// TestRunSharedSingleLSNUnderWriters is the shared path's correctness
// argument under fire: while transfer transactions continuously move money
// between accounts (preserving the total), every query of every shared
// batch must observe the same single LSN — so an aggregate over the whole
// table always sees the invariant total, and two copies of the same
// aggregate inside one batch always agree.
func TestRunSharedSingleLSNUnderWriters(t *testing.T) {
	mgr := sharedWriterEnv(t)
	const total = 800.0

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			from, to := seed%8, (seed+3)%8
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx := mgr.Begin()
				move := func(id int64, delta float64) error {
					stmt := &UpdateStmt{
						Table: "accounts",
						Set:   []SetClause{{Col: "balance", Expr: Const(types.Float(delta)), AddTo: true}},
						Where: []Pred{Eq(Col("id"), Const(types.Int(id)))},
					}
					_, err := stmt.Run(tx)
					return err
				}
				if move(from, -1) != nil || move(to, 1) != nil {
					tx.Abort()
					continue
				}
				if err := tx.Commit(); err != nil {
					tx.Abort()
				}
				from, to = (from+1)%8, (to+5)%8
			}
		}(int64(w))
	}

	sumQ := func() *Select {
		return &Select{
			Items: []SelectItem{AggItem(AggSum, Col("balance"), "total")},
			From:  []string{"accounts"},
		}
	}
	for round := 0; round < 200; round++ {
		ro := mgr.BeginReadOnly()
		// Two copies of the same aggregate plus a full scan: all three must
		// describe the same instant.
		batch := []*Select{sumQ(), sumQ(), {Star: true, From: []string{"accounts"}}}
		results, snap, err := RunShared(ro, "accounts", batch, nil)
		if err != nil {
			t.Fatal(err)
		}
		if snap == 0 {
			t.Fatal("snapshot LSN 0")
		}
		var sums [2]float64
		for i := 0; i < 2; i++ {
			if results[i].Err != nil {
				t.Fatalf("round %d query %d: %v", round, i, results[i].Err)
			}
			if results[i].Out.Len() != 1 {
				t.Fatalf("round %d: aggregate returned %d rows", round, results[i].Out.Len())
			}
			sums[i] = results[i].Out.Value(0, 0).Float()
		}
		if sums[0] != total || sums[1] != total {
			t.Fatalf("round %d: sums %v != invariant %v — batch not at a single LSN", round, sums, total)
		}
		if results[2].Err != nil {
			t.Fatal(results[2].Err)
		}
		var scanSum float64
		for i := 0; i < results[2].Out.Len(); i++ {
			scanSum += results[2].Out.Value(i, 1).Float()
		}
		if scanSum != total {
			t.Fatalf("round %d: full-scan total %v != aggregate total %v", round, scanSum, total)
		}
		for _, r := range results {
			r.Out.Retire()
		}
		if err := ro.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestRunSharedPerQueryError: a bad query (unknown column, join shape)
// fails alone; the rest of the batch still runs.
func TestRunSharedPerQueryError(t *testing.T) {
	mgr, _ := lockEnv(t)
	ro := mgr.BeginReadOnly()
	defer ro.Commit()

	queries := []*Select{
		{Items: []SelectItem{Item(Col("symbol"), "")}, From: []string{"stocks"}},
		{Items: []SelectItem{Item(Col("nope"), "")}, From: []string{"stocks"}},
		{Star: true, From: []string{"stocks", "stocks"}}, // join: not shared-eligible
	}
	results, _, err := RunShared(ro, "stocks", queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatalf("good query poisoned: %v", results[0].Err)
	}
	if results[0].Out.Len() != 3 {
		t.Fatalf("good query rows = %d", results[0].Out.Len())
	}
	results[0].Out.Retire()
	if results[1].Err == nil {
		t.Error("unknown column should fail its query")
	}
	if results[2].Err == nil {
		t.Error("join shape should fail its query")
	}
}

// TestRunSharedConstFalse: a provably-false constant predicate yields an
// empty — but present — result without scanning rows for that query.
func TestRunSharedConstFalse(t *testing.T) {
	mgr, _ := lockEnv(t)
	ro := mgr.BeginReadOnly()
	defer ro.Commit()

	queries := []*Select{
		{
			Items: []SelectItem{Item(Col("symbol"), "")},
			From:  []string{"stocks"},
			Where: []Pred{Cmp(Const(types.Int(1)), EQ, Const(types.Int(2)))},
		},
		{Items: []SelectItem{Item(Col("symbol"), "")}, From: []string{"stocks"}},
	}
	results, _, err := RunShared(ro, "stocks", queries, nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err != nil {
		t.Fatal(results[0].Err)
	}
	if results[0].Out == nil || results[0].Out.Len() != 0 {
		t.Fatalf("const-false query: want empty result, got %v", results[0].Out)
	}
	if results[1].Out.Len() != 3 {
		t.Fatalf("sibling query rows = %d", results[1].Out.Len())
	}
	results[0].Out.Retire()
	results[1].Out.Retire()
}

// TestRunSharedRequiresSnapshot: an ordinary (locking) transaction cannot
// host a shared batch — the whole call fails, no partial results.
func TestRunSharedRequiresSnapshot(t *testing.T) {
	mgr, _ := lockEnv(t)
	tx := mgr.Begin()
	defer tx.Commit()
	_, _, err := RunShared(tx, "stocks", []*Select{{Star: true, From: []string{"stocks"}}}, nil)
	if err == nil {
		t.Fatal("shared batch on a locking txn should fail")
	}
}
