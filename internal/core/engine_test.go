package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/cost"
	"github.com/stripdb/strip/internal/index"
	"github.com/stripdb/strip/internal/lock"
	"github.com/stripdb/strip/internal/query"
	"github.com/stripdb/strip/internal/sched"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

// testDB assembles the full engine stack over the paper's Figure 4 data.
type testDB struct {
	t      *testing.T
	clk    *clock.Virtual
	locks  *lock.Manager
	txns   *txn.Manager
	sched  *sched.Scheduler
	engine *Engine
}

func newTestDB(t *testing.T) *testDB {
	t.Helper()
	cat := catalog.New()
	store := storage.NewStore()
	vc := clock.NewVirtual()
	meter := cost.NewMeter()
	model := cost.Default()
	locks := lock.New()
	mgr := txn.NewManager(cat, store, locks, vc, meter, model)
	s := sched.New(vc, sched.FIFO, meter, model)
	e := NewEngine(mgr, s)
	db := &testDB{t: t, clk: vc, locks: locks, txns: mgr, sched: s, engine: e}

	db.mkTable(catalog.MustSchema("stocks",
		catalog.Column{Name: "symbol", Kind: types.KindString},
		catalog.Column{Name: "price", Kind: types.KindFloat}), "symbol")
	db.mkTable(catalog.MustSchema("comps_list",
		catalog.Column{Name: "comp", Kind: types.KindString},
		catalog.Column{Name: "symbol", Kind: types.KindString},
		catalog.Column{Name: "weight", Kind: types.KindFloat}), "symbol")
	db.mkTable(catalog.MustSchema("comp_prices",
		catalog.Column{Name: "comp", Kind: types.KindString},
		catalog.Column{Name: "price", Kind: types.KindFloat}), "comp")

	db.seed("stocks", [][]types.Value{
		{types.Str("S1"), types.Float(30)},
		{types.Str("S2"), types.Float(40)},
		{types.Str("S3"), types.Float(50)},
	})
	db.seed("comps_list", [][]types.Value{
		{types.Str("C1"), types.Str("S1"), types.Float(0.5)},
		{types.Str("C1"), types.Str("S3"), types.Float(0.5)},
		{types.Str("C2"), types.Str("S1"), types.Float(0.3)},
		{types.Str("C2"), types.Str("S2"), types.Float(0.7)},
	})
	db.seed("comp_prices", [][]types.Value{
		{types.Str("C1"), types.Float(40)},
		{types.Str("C2"), types.Float(37)},
	})
	return db
}

func (db *testDB) mkTable(s *catalog.Schema, indexCol string) {
	db.t.Helper()
	if err := db.txns.Catalog.Define(s); err != nil {
		db.t.Fatal(err)
	}
	tbl, err := db.txns.Store.Create(s)
	if err != nil {
		db.t.Fatal(err)
	}
	if indexCol != "" {
		if err := tbl.CreateIndex(indexCol, index.Hash); err != nil {
			db.t.Fatal(err)
		}
	}
}

func (db *testDB) seed(table string, rows [][]types.Value) {
	db.t.Helper()
	tbl, _ := db.txns.Store.Get(table)
	for _, r := range rows {
		if _, err := tbl.Insert(r); err != nil {
			db.t.Fatal(err)
		}
	}
}

// setPrice runs one update transaction changing a stock's price.
func (db *testDB) setPrice(symbol string, price float64) {
	db.t.Helper()
	tx := db.txns.Begin()
	tbl, err := tx.WriteTable("stocks")
	if err != nil {
		db.t.Fatal(err)
	}
	recs, _ := tbl.IndexLookup("symbol", types.Str(symbol))
	if len(recs) != 1 {
		db.t.Fatalf("stock %s: %d records", symbol, len(recs))
	}
	if _, err := tx.Update("stocks", recs[0], []types.Value{types.Str(symbol), types.Float(price)}); err != nil {
		db.t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		db.t.Fatal(err)
	}
}

// matchesQuery is the paper's Figure 3 condition query:
// select comp, symbol, weight, old_price, new_price
// from comps_list, new, old
// where comps_list.symbol = new.symbol and new.execute_order = old.execute_order
// bind as matches.
func matchesQuery() *query.Select {
	return &query.Select{
		Items: []query.SelectItem{
			query.Item(query.QCol("comps_list", "comp"), ""),
			query.Item(query.QCol("comps_list", "symbol"), ""),
			query.Item(query.QCol("comps_list", "weight"), ""),
			query.Item(query.QCol("old", "price"), "old_price"),
			query.Item(query.QCol("new", "price"), "new_price"),
		},
		From: []string{"new", "old", "comps_list"},
		Where: []query.Pred{
			query.Eq(query.QCol("comps_list", "symbol"), query.QCol("new", "symbol")),
			query.Eq(query.QCol("new", "execute_order"), query.QCol("old", "execute_order")),
		},
		Bind: "matches",
	}
}

// computeComps is the paper's compute_comps1/2: apply aggregated weighted
// deltas from matches to comp_prices.
func computeComps(ctx *ActionContext) error {
	comp := query.QCol("matches", "comp")
	agg, err := ctx.Query(&query.Select{
		Items: []query.SelectItem{
			query.Item(comp, ""),
			query.AggItem(query.AggSum,
				query.Arith(
					query.Arith(query.Col("new_price"), '-', query.Col("old_price")),
					'*', query.Col("weight")),
				"diff"),
		},
		From:    []string{"matches"},
		GroupBy: []*query.ColRef{comp},
	})
	if err != nil {
		return err
	}
	defer agg.Retire()
	for i := 0; i < agg.Len(); i++ {
		_, err := ctx.ExecUpdate(&query.UpdateStmt{
			Table: "comp_prices",
			Set:   []query.SetClause{{Col: "price", Expr: query.Const(agg.Value(i, 1)), AddTo: true}},
			Where: []query.Pred{query.Eq(query.Col("comp"), query.Const(agg.Value(i, 0)))},
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (db *testDB) compPrices() map[string]float64 {
	tbl, _ := db.txns.Store.Get("comp_prices")
	out := map[string]float64{}
	tbl.Scan(func(r *storage.Record) bool {
		out[r.Value(0).Str()] = r.Value(1).Float()
		return true
	})
	return out
}

func (db *testDB) mustCreate(r *Rule) {
	db.t.Helper()
	if err := db.engine.CreateRule(r); err != nil {
		db.t.Fatal(err)
	}
}

func (db *testDB) register(name string, fn ActionFunc) {
	db.t.Helper()
	if err := db.engine.RegisterFunc(name, fn); err != nil {
		db.t.Fatal(err)
	}
}

func (db *testDB) drain() {
	db.t.Helper()
	db.sched.Drain()
}

// --- Tests ---------------------------------------------------------------

// The paper's Figure 4 scenario with the non-unique rule (do_comps1):
// T1 changes S1 and S2, T2 changes S2 and S3; two distinct recompute
// transactions run (Figure 5a), and composite prices stay correct.
func TestNonUniqueRuleFigure4(t *testing.T) {
	db := newTestDB(t)
	db.register("compute_comps1", computeComps)
	db.mustCreate(&Rule{
		Name:      "do_comps1",
		Table:     "stocks",
		Events:    []EventSpec{{Kind: Updated, Columns: []string{"price"}}},
		Condition: []*query.Select{matchesQuery()},
		Action:    "compute_comps1",
	})

	// T1: S1 30->31, S2 40->39 (in one transaction).
	tx := db.txns.Begin()
	stocks, _ := tx.WriteTable("stocks")
	s1, _ := stocks.IndexLookup("symbol", types.Str("S1"))
	s2, _ := stocks.IndexLookup("symbol", types.Str("S2"))
	if _, err := tx.Update("stocks", s1[0], []types.Value{types.Str("S1"), types.Float(31)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Update("stocks", s2[0], []types.Value{types.Str("S2"), types.Float(39)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// T2: S2 39->38, S3 50->51.
	tx2 := db.txns.Begin()
	s2b, _ := stocks.IndexLookup("symbol", types.Str("S2"))
	s3, _ := stocks.IndexLookup("symbol", types.Str("S3"))
	if _, err := tx2.Update("stocks", s2b[0], []types.Value{types.Str("S2"), types.Float(38)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Update("stocks", s3[0], []types.Value{types.Str("S3"), types.Float(51)}); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}

	st := db.engine.Stats("compute_comps1")
	if st.TasksCreated != 2 || st.TasksMerged != 0 {
		t.Fatalf("created/merged = %d/%d, want 2/0", st.TasksCreated, st.TasksMerged)
	}
	db.drain()
	st = db.engine.Stats("compute_comps1")
	if st.TasksRun != 2 || st.TaskErrors != 0 {
		t.Fatalf("run/errors = %d/%d", st.TasksRun, st.TaskErrors)
	}
	// Final composites: C1 = 0.5*31 + 0.5*51 = 41; C2 = 0.3*31 + 0.7*38 = 35.9.
	got := db.compPrices()
	if !approx(got["C1"], 41) || !approx(got["C2"], 35.9) {
		t.Errorf("comp_prices = %v, want C1=41 C2=35.9", got)
	}
}

// Coarse unique (do_comps2, Figure 5b): T2's bound rows are appended to the
// transaction enqueued by T1; only one recompute runs.
func TestUniqueRuleBatchesAcrossTransactions(t *testing.T) {
	db := newTestDB(t)
	db.register("compute_comps2", computeComps)
	db.mustCreate(&Rule{
		Name:      "do_comps2",
		Table:     "stocks",
		Events:    []EventSpec{{Kind: Updated, Columns: []string{"price"}}},
		Condition: []*query.Select{matchesQuery()},
		Action:    "compute_comps2",
		Unique:    true,
		Delay:     clock.FromSeconds(1),
	})

	db.setPrice("S1", 31) // fires at t=0, task released at t=1s
	db.setPrice("S2", 39) // within the window: merged
	db.setPrice("S2", 38) // merged again

	st := db.engine.Stats("compute_comps2")
	if st.TasksCreated != 1 || st.TasksMerged != 2 {
		t.Fatalf("created/merged = %d/%d, want 1/2", st.TasksCreated, st.TasksMerged)
	}
	// S1 contributes 2 matches rows, each S2 update 1 row: 2 merged rows...
	// S2 appears in C2 only (1 row per firing), so 2 rows merged total.
	if st.RowsMerged != 2 {
		t.Fatalf("RowsMerged = %d, want 2", st.RowsMerged)
	}

	// Nothing runs before the release time.
	db.drain()
	if got := db.engine.Stats("compute_comps2").TasksRun; got != 0 {
		t.Fatal("task ran before its delay window expired")
	}
	db.clk.AdvanceTo(clock.FromSeconds(1))
	db.drain()
	st = db.engine.Stats("compute_comps2")
	if st.TasksRun != 1 || st.TaskErrors != 0 {
		t.Fatalf("run/errors = %d/%d", st.TasksRun, st.TaskErrors)
	}
	// C1 = 40 + 0.5*1 = 40.5; C2 = 37 + 0.3*1 + 0.7*(-1) + 0.7*(-1) = 35.9.
	got := db.compPrices()
	if !approx(got["C1"], 40.5) || !approx(got["C2"], 35.9) {
		t.Errorf("comp_prices = %v, want C1=40.5 C2=35.9", got)
	}
}

// unique on comp (do_comps3, Figure 5c): one task per composite, each seeing
// only its own partition of matches.
func TestUniqueOnColumnPartitions(t *testing.T) {
	db := newTestDB(t)
	seen := map[string]int{} // comp -> rows observed
	db.register("compute_comps3", func(ctx *ActionContext) error {
		m, ok := ctx.Bound("matches")
		if !ok {
			return errors.New("no matches table")
		}
		comps := map[string]bool{}
		for i := 0; i < m.Len(); i++ {
			comps[m.Value(i, 0).Str()] = true
		}
		if len(comps) != 1 {
			return fmt.Errorf("partition contains %d composites", len(comps))
		}
		for c := range comps {
			seen[c] += m.Len()
		}
		return computeComps(ctx)
	})
	db.mustCreate(&Rule{
		Name:      "do_comps3",
		Table:     "stocks",
		Events:    []EventSpec{{Kind: Updated, Columns: []string{"price"}}},
		Condition: []*query.Select{matchesQuery()},
		Action:    "compute_comps3",
		Unique:    true,
		UniqueOn:  []string{"comp"},
		Delay:     clock.FromSeconds(1),
	})

	db.setPrice("S1", 31) // touches C1 and C2 -> two tasks
	db.setPrice("S2", 39) // touches C2 -> merged into C2's task

	st := db.engine.Stats("compute_comps3")
	if st.TasksCreated != 2 || st.TasksMerged != 1 {
		t.Fatalf("created/merged = %d/%d, want 2/1", st.TasksCreated, st.TasksMerged)
	}
	db.clk.AdvanceTo(clock.FromSeconds(2))
	db.drain()
	st = db.engine.Stats("compute_comps3")
	if st.TasksRun != 2 || st.TaskErrors != 0 {
		t.Fatalf("run/errors = %d/%d", st.TasksRun, st.TaskErrors)
	}
	if seen["C1"] != 1 || seen["C2"] != 2 {
		t.Errorf("partition rows = %v, want C1:1 C2:2", seen)
	}
	got := db.compPrices()
	if !approx(got["C1"], 40.5) || !approx(got["C2"], 36.6) {
		t.Errorf("comp_prices = %v, want C1=40.5 C2=36.6", got)
	}
}

// Once a unique task starts, its bound tables are fixed: later firings
// start a fresh task (paper §2).
func TestUniqueTaskFreezesOnStart(t *testing.T) {
	db := newTestDB(t)
	db.register("f", func(ctx *ActionContext) error { return nil })
	db.mustCreate(&Rule{
		Name:      "r",
		Table:     "stocks",
		Events:    []EventSpec{{Kind: Updated}},
		Condition: []*query.Select{matchesQuery()},
		Action:    "f",
		Unique:    true,
	})
	db.setPrice("S1", 31)
	db.drain() // runs the first task (delay 0)
	db.setPrice("S1", 32)
	st := db.engine.Stats("f")
	if st.TasksCreated != 2 || st.TasksMerged != 0 {
		t.Fatalf("created/merged = %d/%d, want 2/0", st.TasksCreated, st.TasksMerged)
	}
	db.drain()
	if got := db.engine.Stats("f").TasksRun; got != 2 {
		t.Fatalf("TasksRun = %d", got)
	}
}

func approx(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestConditionFalseNoTask(t *testing.T) {
	db := newTestDB(t)
	db.register("f", func(ctx *ActionContext) error { return nil })
	q := matchesQuery()
	db.mustCreate(&Rule{
		Name:      "r",
		Table:     "stocks",
		Events:    []EventSpec{{Kind: Updated}},
		Condition: []*query.Select{q},
		Action:    "f",
	})
	// Insert a stock that belongs to no composite, then update it: the
	// condition join is empty.
	tx := db.txns.Begin()
	rec, err := tx.Insert("stocks", []types.Value{types.Str("ZZ"), types.Float(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := db.txns.Begin()
	if _, err := tx2.Update("stocks", rec, []types.Value{types.Str("ZZ"), types.Float(2)}); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := db.engine.Stats("f"); st.Fired != 0 || st.TasksCreated != 0 {
		t.Errorf("stats = %+v, want no firing", st)
	}
}

func TestUpdatedColumnGating(t *testing.T) {
	db := newTestDB(t)
	db.register("f", func(ctx *ActionContext) error { return nil })
	db.mustCreate(&Rule{
		Name:   "r",
		Table:  "comp_prices",
		Events: []EventSpec{{Kind: Updated, Columns: []string{"comp"}}},
		Action: "f",
	})
	// Update only the price column: the rule must not trigger.
	tx := db.txns.Begin()
	tbl, _ := tx.WriteTable("comp_prices")
	recs, _ := tbl.IndexLookup("comp", types.Str("C1"))
	if _, err := tx.Update("comp_prices", recs[0], []types.Value{types.Str("C1"), types.Float(99)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := db.engine.Stats("f"); st.Fired != 0 {
		t.Error("rule fired on unrelated column update")
	}
	// Now change the comp column: triggers.
	tx2 := db.txns.Begin()
	recs2, _ := tbl.IndexLookup("comp", types.Str("C1"))
	if _, err := tx2.Update("comp_prices", recs2[0], []types.Value{types.Str("C1x"), types.Float(99)}); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := db.engine.Stats("f"); st.Fired != 1 {
		t.Errorf("Fired = %d, want 1", st.Fired)
	}
}

func TestInsertedDeletedEvents(t *testing.T) {
	db := newTestDB(t)
	var kinds []string
	db.register("f", func(ctx *ActionContext) error {
		ins, _ := ctx.Bound("my_ins")
		del, _ := ctx.Bound("my_del")
		kinds = append(kinds, fmt.Sprintf("ins=%d del=%d", ins.Len(), del.Len()))
		return nil
	})
	db.mustCreate(&Rule{
		Name:   "r",
		Table:  "stocks",
		Events: []EventSpec{{Kind: Inserted}, {Kind: Deleted}},
		Condition: []*query.Select{
			{
				Items: []query.SelectItem{query.Item(query.Col("symbol"), ""), query.Item(query.Col("execute_order"), "")},
				From:  []string{"inserted"},
				Bind:  "my_ins",
			},
		},
		Evaluate: []*query.Select{
			{
				Items: []query.SelectItem{query.Item(query.Col("symbol"), "")},
				From:  []string{"deleted"},
				Bind:  "my_del",
			},
		},
		Action: "f",
	})
	// Insert one row and delete one existing row in the same transaction.
	tx := db.txns.Begin()
	if _, err := tx.Insert("stocks", []types.Value{types.Str("NEW"), types.Float(5)}); err != nil {
		t.Fatal(err)
	}
	tbl, _ := tx.WriteTable("stocks")
	recs, _ := tbl.IndexLookup("symbol", types.Str("S3"))
	if err := tx.Delete("stocks", recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	db.drain()
	if len(kinds) != 1 || kinds[0] != "ins=1 del=1" {
		t.Errorf("kinds = %v", kinds)
	}
}

// Net effect is not reduced: a row inserted and deleted in one transaction
// appears in both transition tables (paper §2).
func TestNoNetEffectReduction(t *testing.T) {
	db := newTestDB(t)
	var insRows, delRows int
	db.register("f", func(ctx *ActionContext) error {
		ins, _ := ctx.Bound("bi")
		del, _ := ctx.Bound("bd")
		insRows, delRows = ins.Len(), del.Len()
		return nil
	})
	db.mustCreate(&Rule{
		Name:   "r",
		Table:  "stocks",
		Events: []EventSpec{{Kind: Inserted}},
		Condition: []*query.Select{
			{Items: []query.SelectItem{query.Item(query.Col("symbol"), "")}, From: []string{"inserted"}, Bind: "bi"},
		},
		Evaluate: []*query.Select{
			{Items: []query.SelectItem{query.Item(query.Col("symbol"), "")}, From: []string{"deleted"}, Bind: "bd"},
		},
		Action: "f",
	})
	tx := db.txns.Begin()
	rec, err := tx.Insert("stocks", []types.Value{types.Str("TMP"), types.Float(1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("stocks", rec); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	db.drain()
	if insRows != 1 || delRows != 1 {
		t.Errorf("ins/del rows = %d/%d, want 1/1 (audit trail)", insRows, delRows)
	}
}

func TestCommitTimeStamping(t *testing.T) {
	db := newTestDB(t)
	var stamps []int64
	db.register("f", func(ctx *ActionContext) error {
		m, _ := ctx.Bound("matches")
		ct := m.Schema().ColIndex(CommitTimeCol)
		if ct < 0 {
			return errors.New("no commit_time column")
		}
		for i := 0; i < m.Len(); i++ {
			stamps = append(stamps, m.Value(i, ct).Micros())
		}
		return nil
	})
	db.mustCreate(&Rule{
		Name:           "r",
		Table:          "stocks",
		Events:         []EventSpec{{Kind: Updated}},
		Condition:      []*query.Select{matchesQuery()},
		Action:         "f",
		Unique:         true,
		Delay:          clock.FromSeconds(5),
		BindCommitTime: true,
	})
	db.setPrice("S2", 41) // at t=0 (1 row: C2)
	db.clk.AdvanceTo(clock.FromSeconds(2))
	db.setPrice("S2", 42) // at t=2s, merged
	db.clk.AdvanceTo(clock.FromSeconds(5))
	db.drain()
	if len(stamps) != 2 {
		t.Fatalf("stamps = %v", stamps)
	}
	if stamps[0] != 0 || stamps[1] != clock.FromSeconds(2) {
		t.Errorf("stamps = %v, want [0, 2s] ordering changes across transactions", stamps)
	}
}

func TestActionErrorAbortsItsTransaction(t *testing.T) {
	db := newTestDB(t)
	db.register("f", func(ctx *ActionContext) error {
		if _, err := ctx.ExecUpdate(&query.UpdateStmt{
			Table: "comp_prices",
			Set:   []query.SetClause{{Col: "price", Expr: query.Const(types.Float(0))}},
		}); err != nil {
			return err
		}
		return errors.New("user function failed")
	})
	db.mustCreate(&Rule{
		Name:      "r",
		Table:     "stocks",
		Events:    []EventSpec{{Kind: Updated}},
		Condition: []*query.Select{matchesQuery()},
		Action:    "f",
	})
	db.setPrice("S1", 31)
	db.drain()
	st := db.engine.Stats("f")
	if st.TasksRun != 1 || st.TaskErrors != 1 {
		t.Fatalf("run/errors = %d/%d", st.TasksRun, st.TaskErrors)
	}
	// The failed action's writes rolled back.
	got := db.compPrices()
	if got["C1"] != 40 || got["C2"] != 37 {
		t.Errorf("comp_prices = %v, want originals", got)
	}
}

// Deadlock-victim actions are restarted (paper §3).
func TestDeadlockRestart(t *testing.T) {
	db := newTestDB(t)
	attempts := 0
	db.register("f", func(ctx *ActionContext) error {
		attempts++
		if attempts == 1 {
			return fmt.Errorf("wrapped: %w", lock.ErrDeadlock)
		}
		return nil
	})
	db.mustCreate(&Rule{
		Name:      "r",
		Table:     "stocks",
		Events:    []EventSpec{{Kind: Updated}},
		Condition: []*query.Select{matchesQuery()},
		Action:    "f",
	})
	db.setPrice("S1", 31)
	db.drain()
	if attempts != 1 {
		t.Fatalf("attempts = %d before backoff elapsed, want 1", attempts)
	}
	// The retry waits out its backoff (well under a second) in the delay
	// queue; advance past it and run.
	db.clk.AdvanceTo(clock.FromSeconds(1))
	db.drain()
	st := db.engine.Stats("f")
	if attempts != 2 || st.Restarts != 1 || st.TasksRun != 1 || st.TaskErrors != 0 {
		t.Errorf("attempts=%d stats=%+v", attempts, st)
	}
}

// A rule action committing changes can trigger further rules (cascading).
func TestCascadingRules(t *testing.T) {
	db := newTestDB(t)
	db.register("compute", computeComps)
	cascaded := 0
	db.register("watch_comps", func(ctx *ActionContext) error {
		cascaded++
		return nil
	})
	db.mustCreate(&Rule{
		Name:      "r1",
		Table:     "stocks",
		Events:    []EventSpec{{Kind: Updated}},
		Condition: []*query.Select{matchesQuery()},
		Action:    "compute",
	})
	db.mustCreate(&Rule{
		Name:   "r2",
		Table:  "comp_prices",
		Events: []EventSpec{{Kind: Updated, Columns: []string{"price"}}},
		Action: "watch_comps",
	})
	db.setPrice("S1", 31)
	db.drain() // runs compute, which updates comp_prices, firing r2
	if cascaded != 1 {
		t.Errorf("cascaded = %d, want 1", cascaded)
	}
}

func TestRuleValidation(t *testing.T) {
	db := newTestDB(t)
	db.register("f", func(ctx *ActionContext) error { return nil })
	cases := []*Rule{
		{Table: "stocks", Events: []EventSpec{{Kind: Updated}}, Action: "f"},                                                   // no name
		{Name: "a", Events: []EventSpec{{Kind: Updated}}, Action: "f"},                                                         // no table
		{Name: "b", Table: "stocks", Action: "f"},                                                                              // no events
		{Name: "c", Table: "stocks", Events: []EventSpec{{Kind: Updated}}},                                                     // no action
		{Name: "d", Table: "stocks", Events: []EventSpec{{Kind: Updated}}, Action: "f", UniqueOn: []string{"x"}},               // unique on w/o unique
		{Name: "e", Table: "stocks", Events: []EventSpec{{Kind: Updated}}, Action: "f", Delay: -1},                             // negative delay
		{Name: "g", Table: "stocks", Events: []EventSpec{{Kind: Updated}}, Action: "nope"},                                     // unknown function
		{Name: "h", Table: "missing", Events: []EventSpec{{Kind: Updated}}, Action: "f"},                                       // unknown table
		{Name: "i", Table: "stocks", Events: []EventSpec{{Kind: Updated}}, Action: "f", Unique: true, UniqueOn: []string{"x"}}, // unique on but no binds
		{Name: "j", Table: "stocks", Events: []EventSpec{{Kind: Updated}}, Action: "f",
			Condition: []*query.Select{{From: []string{"new"}, Bind: "new"}}}, // reserved bind name
		{Name: "k", Table: "stocks", Events: []EventSpec{{Kind: Updated}}, Action: "f",
			Condition: []*query.Select{{From: []string{"new"}, Bind: "x"}, {From: []string{"old"}, Bind: "x"}}}, // dup bind
	}
	for i, r := range cases {
		if err := db.engine.CreateRule(r); err == nil {
			t.Errorf("case %d (%s) accepted", i, r.Name)
		}
	}
	// Valid rule, then duplicate name.
	ok := &Rule{Name: "okrule", Table: "stocks", Events: []EventSpec{{Kind: Updated}}, Action: "f"}
	if err := db.engine.CreateRule(ok); err != nil {
		t.Fatal(err)
	}
	if err := db.engine.CreateRule(ok); err == nil {
		t.Error("duplicate rule name accepted")
	}
}

func TestDropRule(t *testing.T) {
	db := newTestDB(t)
	db.register("f", func(ctx *ActionContext) error { return nil })
	db.mustCreate(&Rule{Name: "r", Table: "stocks", Events: []EventSpec{{Kind: Updated}}, Action: "f"})
	if len(db.engine.Rules("stocks")) != 1 {
		t.Fatal("rule not listed")
	}
	if err := db.engine.DropRule("r"); err != nil {
		t.Fatal(err)
	}
	if err := db.engine.DropRule("r"); err == nil {
		t.Error("double drop accepted")
	}
	db.setPrice("S1", 31)
	if st := db.engine.Stats("f"); st.Fired != 0 {
		t.Error("dropped rule fired")
	}
}

// Rules executing the same function must define bound tables identically
// (paper §2); a mismatch is rejected at fire time.
func TestBindSignatureMismatch(t *testing.T) {
	db := newTestDB(t)
	db.register("f", func(ctx *ActionContext) error { return nil })
	db.mustCreate(&Rule{
		Name: "r1", Table: "stocks", Events: []EventSpec{{Kind: Updated}},
		Condition: []*query.Select{matchesQuery()},
		Action:    "f", Unique: true,
	})
	// Same function, differently-defined bound table.
	other := &query.Select{
		Items: []query.SelectItem{query.Item(query.QCol("new", "comp"), "")},
		From:  []string{"new"},
		Bind:  "matches",
	}
	// r1 fixed f's signature; r2 is refused when it is created, before any
	// transaction can trigger it.
	err := db.engine.CreateRule(&Rule{
		Name: "r2", Table: "comp_prices", Events: []EventSpec{{Kind: Updated}},
		Condition: []*query.Select{other},
		Action:    "f", Unique: true,
	})
	if err == nil || !strings.Contains(err.Error(), "different definition") {
		t.Errorf("CreateRule err = %v, want bind-signature mismatch", err)
	}
	if len(db.engine.Rules("comp_prices")) != 0 {
		t.Error("the refused rule was installed")
	}
	// The table its function's rules were compiled for can change under
	// them: re-created with another column, r1's `matches` no longer fits
	// f's signature, and a commit that triggers r1 fails with that.
	if err := db.txns.Catalog.Drop("stocks"); err != nil {
		t.Fatal(err)
	}
	if err := db.txns.Store.Drop("stocks"); err != nil {
		t.Fatal(err)
	}
	db.mkTable(catalog.MustSchema("stocks",
		catalog.Column{Name: "symbol", Kind: types.KindString},
		catalog.Column{Name: "price", Kind: types.KindInt}), "symbol")
	db.seed("stocks", [][]types.Value{{types.Str("S1"), types.Int(30)}})
	tx := db.txns.Begin()
	tbl, _ := tx.WriteTable("stocks")
	recs, _ := tbl.IndexLookup("symbol", types.Str("S1"))
	if _, err := tx.Update("stocks", recs[0], []types.Value{types.Str("S1"), types.Int(31)}); err != nil {
		t.Fatal(err)
	}
	err = tx.Commit()
	if err == nil || !strings.Contains(err.Error(), "different definition") {
		t.Errorf("commit err = %v, want bind-signature mismatch", err)
	}
}

func TestRegisterFuncValidation(t *testing.T) {
	db := newTestDB(t)
	if err := db.engine.RegisterFunc("", func(*ActionContext) error { return nil }); err == nil {
		t.Error("empty name accepted")
	}
	if err := db.engine.RegisterFunc("f", nil); err == nil {
		t.Error("nil function accepted")
	}
	db.register("f", func(*ActionContext) error { return nil })
	if err := db.engine.RegisterFunc("f", func(*ActionContext) error { return nil }); err == nil {
		t.Error("duplicate registration accepted")
	}
}

// Two rules (different tables) executing the same unique function merge
// into the same pending task (paper §2: "even if the second rule is a
// different one from the first").
func TestCrossRuleMerging(t *testing.T) {
	db := newTestDB(t)
	var rows int
	db.register("f", func(ctx *ActionContext) error {
		b, _ := ctx.Bound("changed")
		rows = b.Len()
		return nil
	})
	bindNew := func() *query.Select {
		return &query.Select{
			Items: []query.SelectItem{query.Item(query.QCol("new", "execute_order"), "")},
			From:  []string{"new"},
			Bind:  "changed",
		}
	}
	db.mustCreate(&Rule{
		Name: "on_stocks", Table: "stocks", Events: []EventSpec{{Kind: Updated}},
		Condition: []*query.Select{bindNew()},
		Action:    "f", Unique: true, Delay: clock.FromSeconds(1),
	})
	db.mustCreate(&Rule{
		Name: "on_comps", Table: "comp_prices", Events: []EventSpec{{Kind: Updated}},
		Condition: []*query.Select{bindNew()},
		Action:    "f", Unique: true, Delay: clock.FromSeconds(1),
	})
	db.setPrice("S1", 31) // rule 1 creates the task
	tx := db.txns.Begin()
	tbl, _ := tx.WriteTable("comp_prices")
	recs, _ := tbl.IndexLookup("comp", types.Str("C1"))
	if _, err := tx.Update("comp_prices", recs[0], []types.Value{types.Str("C1"), types.Float(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil { // rule 2 merges
		t.Fatal(err)
	}
	st := db.engine.Stats("f")
	if st.TasksCreated != 1 || st.TasksMerged != 1 {
		t.Fatalf("created/merged = %d/%d, want 1/1", st.TasksCreated, st.TasksMerged)
	}
	db.clk.AdvanceTo(clock.FromSeconds(1))
	db.drain()
	if rows != 2 {
		t.Errorf("combined bound rows = %d, want 2", rows)
	}
}

// Bound tables must be reclaimed (records unpinned) after the task runs.
func TestBoundTableReclamation(t *testing.T) {
	db := newTestDB(t)
	db.register("f", func(ctx *ActionContext) error { return nil })
	db.mustCreate(&Rule{
		Name: "r", Table: "stocks", Events: []EventSpec{{Kind: Updated}},
		Condition: []*query.Select{matchesQuery()},
		Action:    "f", Unique: true,
	})
	db.setPrice("S1", 31)
	db.setPrice("S1", 32)
	db.drain()
	stocks, _ := db.txns.Store.Get("stocks")
	if held := stocks.Stats().RetiredHeld; held != 0 {
		t.Errorf("RetiredHeld = %d after all tasks finished", held)
	}
	cl, _ := db.txns.Store.Get("comps_list")
	if held := cl.Stats().RetiredHeld; held != 0 {
		t.Errorf("comps_list RetiredHeld = %d", held)
	}
}
