package strip

import (
	"math"
	"strings"
	"testing"
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
