package strip

import (
	"math"
	"strings"
	"testing"
	"time"
)

// End-to-end test of the §8 extension: a materialized view defined in SQL
// gets its maintenance rule generated automatically (unit of batching and
// delay included) and stays consistent under batched updates.
func TestCreateMaterializedViewEndToEnd(t *testing.T) {
	db := setupPTA(t, Config{Virtual: true})
	res, err := db.Exec(`
	  create materialized view index_prices as
	  select comp, sum(price * weight) as price
	  from stocks, comps_list
	  where stocks.symbol = comps_list.symbol
	  group by comp`)
	if err != nil {
		t.Fatal(err)
	}
	_ = res

	// Materialized contents match the paper's Figure 4 values.
	out := db.MustExec(`select comp, price from index_prices`)
	got := map[string]float64{}
	for _, r := range out.Rows {
		got[r[0].Str()] = r[1].Float()
	}
	if got["C1"] != 40 || got["C2"] != 37 {
		t.Fatalf("materialized rows = %v", got)
	}

	// The generated rule maintains the view under batched updates.
	db.MustExec(`update stocks set price = 31 where symbol = 'S1'`)
	db.MustExec(`update stocks set price = 39 where symbol = 'S2'`)
	db.WaitIdle()
	out = db.MustExec(`select comp, price from index_prices`)
	for _, r := range out.Rows {
		got[r[0].Str()] = r[1].Float()
	}
	if math.Abs(got["C1"]-40.5) > 1e-9 || math.Abs(got["C2"]-36.6) > 1e-9 {
		t.Errorf("maintained rows = %v, want C1=40.5 C2=36.6", got)
	}
	st := db.Stats("maintain_index_prices_fn")
	if st.TasksRun == 0 || st.TaskErrors != 0 {
		t.Errorf("generated action stats = %+v", st)
	}
}

func TestCreateMaterializedViewAdvice(t *testing.T) {
	db := setupPTA(t, Config{Virtual: true})
	q := mustSelect(t, `
	  select comp, sum(price * weight) as price
	  from stocks, comps_list
	  where stocks.symbol = comps_list.symbol
	  group by comp`)
	vi, err := db.CreateMaterializedView("cp2", q, ViewOptions{UpdateRate: 33, MaxStaleness: 3_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(vi.UniqueOn) != 1 || vi.UniqueOn[0] != "comp" {
		t.Errorf("advice unique on %v, want comp", vi.UniqueOn)
	}
	if vi.Maintenance != "delta" {
		t.Errorf("maintenance = %q, want delta (indexes exist)", vi.Maintenance)
	}
	if vi.DelayMicros <= 0 || vi.DelayMicros > 3_000_000 {
		t.Errorf("delay = %d", vi.DelayMicros)
	}
	if vi.Rows != 2 {
		t.Errorf("rows = %d", vi.Rows)
	}
	if !strings.Contains(vi.String(), "cp2") {
		t.Errorf("String() = %q", vi.String())
	}
}

// A per-row function view: option prices maintained from the last batched
// underlying price.
func TestCreateMaterializedViewPerRow(t *testing.T) {
	RegisterScalarFunc("intrinsic", func(args []Value) (Value, error) {
		v := args[0].Float() - args[1].Float()
		if v < 0 {
			v = 0
		}
		return Float(v), nil
	})
	db := setupPTA(t, Config{Virtual: true})
	db.MustExec(`create table opts (opt text, symbol text, strike float)`)
	db.MustExec(`create index on opts (symbol)`)
	db.MustExec(`insert into opts values ('O1', 'S1', 25), ('O2', 'S1', 35), ('O3', 'S2', 30)`)

	vi, err := db.CreateMaterializedView("opt_vals", mustSelect(t, `
	  select opt, intrinsic(price, strike) as v
	  from stocks, opts
	  where stocks.symbol = opts.symbol`), ViewOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if vi.UniqueOn[0] != "symbol" {
		t.Errorf("per-row view advice = %v, want base key", vi.UniqueOn)
	}
	// S1: 30 -> 32 then 33 in the same window; the view must use the last.
	db.MustExec(`update stocks set price = 32 where symbol = 'S1'`)
	db.MustExec(`update stocks set price = 33 where symbol = 'S1'`)
	db.WaitIdle()
	out := db.MustExec(`select opt, v from opt_vals`)
	got := map[string]float64{}
	for _, r := range out.Rows {
		got[r[0].Str()] = r[1].Float()
	}
	if got["O1"] != 8 || got["O2"] != 0 || got["O3"] != 10 {
		t.Errorf("opt_vals = %v, want O1=8 O2=0 O3=10", got)
	}
	st := db.Stats("maintain_opt_vals_fn")
	if st.TasksMerged != 1 {
		t.Errorf("merged = %d, want 1 (two updates in one window)", st.TasksMerged)
	}
}

func TestCreateMaterializedViewErrors(t *testing.T) {
	db := setupPTA(t, Config{Virtual: true})
	// Unsupported shape.
	if _, err := db.Exec(`create materialized view v as select symbol from stocks`); err == nil {
		t.Error("single-table view accepted")
	}
	// Name collision with an existing table.
	if _, err := db.Exec(`
	  create materialized view stocks as
	  select comp, sum(price * weight) as p
	  from stocks, comps_list
	  where stocks.symbol = comps_list.symbol
	  group by comp`); err == nil {
		t.Error("view over existing table name accepted")
	}
}

func mustSelect(t *testing.T, sql string) *Select {
	t.Helper()
	db := MustOpen(Config{Virtual: true}) // parse via a scratch engine
	_ = db
	stmt, err := ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// durableView builds two tables and a delta-maintained view on a durable
// engine, runs one maintained update, and returns what the view then holds.
func durableView(t *testing.T, db *DB) [][]Value {
	t.Helper()
	db.MustExec(`create table stocks (symbol text, price float)`)
	db.MustExec(`create index on stocks (symbol)`)
	db.MustExec(`create table comps_list (comp text, symbol text, weight float)`)
	db.MustExec(`create index on comps_list (symbol)`)
	db.MustExec(`insert into stocks values ('S1', 30), ('S2', 40)`)
	db.MustExec(`insert into comps_list values ('C1', 'S1', 0.5), ('C1', 'S2', 0.5), ('C2', 'S1', 1.0)`)
	def := mustSelect(t, `
	  select comp, sum(price * weight) as price
	  from stocks, comps_list
	  where stocks.symbol = comps_list.symbol
	  group by comp`)
	if _, err := db.CreateMaterializedView("v", def, ViewOptions{Mode: ViewModeDelta, MaxStaleness: 1}); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`update stocks set price = 50 where symbol = 'S1'`)
	db.WaitIdle()
	want := db.MustExec(`select comp, price from v order by comp`).Rows
	if len(want) != 2 || want[0][1].Float() != 45 || want[1][1].Float() != 50 {
		t.Fatalf("maintained view = %v, want C1 45, C2 50", want)
	}
	return want
}

func sameRows(a, b [][]Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for c := range a[i] {
			if !a[i][c].Equal(b[i][c]) {
				return false
			}
		}
	}
	return true
}

// A materialized view's table, index, initial rows and maintenance commits
// are all in the write-ahead log, so a durable engine with a view re-opens
// (it used to fail replaying the view's index: its table was never logged).
func TestMaterializedViewSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db := MustOpen(Config{Workers: 2, DataDir: dir})
	want := durableView(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(Config{Workers: 2, DataDir: dir})
	if err != nil {
		t.Fatalf("re-open with a materialized view: %v", err)
	}
	defer db2.Close()
	if got := db2.MustExec(`select comp, price from v order by comp`).Rows; !sameRows(got, want) {
		t.Fatalf("view after re-open = %v, want %v", got, want)
	}
	if tbl, ok := db2.Txns().Store.Get("v"); !ok || !tbl.HasIndex("comp") {
		t.Fatal("the view's key index was not recovered")
	}
}

// The same through a warm standby: it replays the view's DDL, load and
// maintenance from the primary's log and serves the view's rows.
func TestMaterializedViewReachesStandby(t *testing.T) {
	p := serveOpen(t, Config{DataDir: t.TempDir()})
	want := durableView(t, p)
	r := serveOpen(t, Config{
		DataDir:   t.TempDir(),
		ReplicaOf: p.ServerAddr(),
		Repl:      ReplOptions{Heartbeat: 10 * time.Millisecond},
	})
	waitUntil(t, 10*time.Second, "the standby to hold the maintained view", func() bool {
		res, err := r.Exec(`select comp, price from v order by comp`)
		return err == nil && sameRows(res.Rows, want)
	})
	if st, _ := r.ReplStatus(); st.LastError != "" {
		t.Fatalf("standby replay error: %s", st.LastError)
	}
}
