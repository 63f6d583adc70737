package strip

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stripdb/strip/internal/query"
	"github.com/stripdb/strip/internal/storage"
)

// setupPTA builds the paper's small Figure 4 database through the SQL API.
func setupPTA(t testing.TB, cfg Config) *DB {
	t.Helper()
	db := MustOpen(cfg)
	for _, stmt := range []string{
		`create table stocks (symbol text, price float)`,
		`create index on stocks (symbol)`,
		`create table comps_list (comp text, symbol text, weight float)`,
		`create index on comps_list (symbol)`,
		`create table comp_prices (comp text, price float)`,
		`create index on comp_prices (comp)`,
		`insert into stocks values ('S1', 30), ('S2', 40), ('S3', 50)`,
		`insert into comps_list values
		   ('C1','S1',0.5), ('C1','S3',0.5), ('C2','S1',0.3), ('C2','S2',0.7)`,
		`insert into comp_prices values ('C1', 40), ('C2', 37)`,
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	return db
}

const doComps3SQL = `
create rule do_comps3 on stocks
when updated price
if select comp, comps_list.symbol as symbol, weight,
          old.price as old_price, new.price as new_price
   from new, old, comps_list
   where comps_list.symbol = new.symbol
     and new.execute_order = old.execute_order
   bind as matches
then execute compute_comps3
unique on comp
after 1.0 seconds`

// computeComps3 is the paper's Figure 7 user function: the matches table
// holds changes for a single composite; accumulate and apply once.
func computeComps3(ctx *ActionContext) error {
	m, ok := ctx.Bound("matches")
	if !ok {
		return nil
	}
	var diff float64
	var comp Value
	sch := m.Schema()
	ci, wi, oi, ni := sch.ColIndex("comp"), sch.ColIndex("weight"), sch.ColIndex("old_price"), sch.ColIndex("new_price")
	for i := 0; i < m.Len(); i++ {
		comp = m.Value(i, ci)
		diff += m.Value(i, wi).Float() * (m.Value(i, ni).Float() - m.Value(i, oi).Float())
	}
	_, err := ctx.ExecUpdate(&query.UpdateStmt{
		Table: "comp_prices",
		Set:   []query.SetClause{{Col: "price", Expr: query.Const(Float(diff)), AddTo: true}},
		Where: []query.Pred{query.Eq(query.Col("comp"), query.Const(comp))},
	})
	return err
}

func TestEndToEndSQLVirtual(t *testing.T) {
	db := setupPTA(t, Config{Virtual: true})
	if err := db.RegisterFunc("compute_comps3", computeComps3); err != nil {
		t.Fatal(err)
	}
	db.MustExec(doComps3SQL)

	db.MustExec(`update stocks set price = 31 where symbol = 'S1'`)
	db.MustExec(`update stocks set price = 39 where symbol = 'S2'`)

	st := db.Stats("compute_comps3")
	if st.TasksCreated != 2 || st.TasksMerged != 1 {
		t.Fatalf("created/merged = %d/%d, want 2/1", st.TasksCreated, st.TasksMerged)
	}
	db.WaitIdle() // advances the virtual clock through the delay window
	res := db.MustExec(`select comp, price from comp_prices`)
	got := map[string]float64{}
	for _, r := range res.Rows {
		got[r[0].Str()] = r[1].Float()
	}
	// C1 = 40 + 0.5; C2 = 37 + 0.3 - 0.7.
	if got["C1"] != 40.5 || got["C2"] != 36.6 {
		t.Errorf("comp_prices = %v", got)
	}
	if db.Meter() <= 0 {
		t.Error("virtual mode charged nothing")
	}
}

// The same flow on the live engine: the rule's delay elapses in real time
// and the worker pool runs the recompute.
func TestEndToEndLive(t *testing.T) {
	db := setupPTA(t, Config{Workers: 2})
	defer db.Close()
	var runs atomic.Int32
	if err := db.RegisterFunc("compute_comps3", func(ctx *ActionContext) error {
		runs.Add(1)
		return computeComps3(ctx)
	}); err != nil {
		t.Fatal(err)
	}
	db.MustExec(strings.Replace(doComps3SQL, "after 1.0 seconds", "after 20 ms", 1))

	db.MustExec(`update stocks set price = 31 where symbol = 'S1'`)
	deadline := time.Now().Add(5 * time.Second)
	for runs.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if runs.Load() != 2 {
		t.Fatalf("recompute ran %d times, want 2 (C1 and C2)", runs.Load())
	}
	res := db.MustExec(`select price from comp_prices where comp = 'C1'`)
	if len(res.Rows) != 1 || res.Rows[0][0].Float() != 40.5 {
		t.Errorf("C1 = %v", res.Rows)
	}
}

func TestExecErrors(t *testing.T) {
	db := MustOpen(Config{Virtual: true})
	cases := []string{
		`select * from missing`,
		`create table t (a blob)`,
		`create index on missing (x)`,
		`create index on t2 (x) using wat`,
		`drop table missing`,
		`drop rule missing`,
		`insert into missing values (1)`,
		`this is not sql`,
	}
	db.MustExec(`create table t2 (x int)`)
	for _, sql := range cases {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("Exec(%q) succeeded", sql)
		}
	}
	// Duplicate table.
	if _, err := db.Exec(`create table t2 (x int)`); err == nil {
		t.Error("duplicate create table succeeded")
	}
}

func TestExecDDLAndDML(t *testing.T) {
	db := MustOpen(Config{Virtual: true})
	db.MustExec(`create table t (a int, b float)`)
	r := db.MustExec(`insert into t values (1, 2.5), (2, 5.0)`)
	if r.Affected != 2 {
		t.Errorf("Affected = %d", r.Affected)
	}
	r = db.MustExec(`update t set b = b * 2 where a = 1`)
	if r.Affected != 1 {
		t.Errorf("update Affected = %d", r.Affected)
	}
	res := db.MustExec(`select a, b from t where a = 1`)
	if len(res.Rows) != 1 || res.Rows[0][1].Float() != 5 {
		t.Errorf("rows = %v", res.Rows)
	}
	if res.Columns[0] != "a" || res.Columns[1] != "b" {
		t.Errorf("columns = %v", res.Columns)
	}
	r = db.MustExec(`delete from t where a = 2`)
	if r.Affected != 1 {
		t.Errorf("delete Affected = %d", r.Affected)
	}
	db.MustExec(`drop table t`)
	if _, err := db.Exec(`select a from t`); err == nil {
		t.Error("select from dropped table succeeded")
	}
}

func TestExecInGroupsStatements(t *testing.T) {
	db := setupPTA(t, Config{Virtual: true})
	fired := 0
	if err := db.RegisterFunc("watch", func(ctx *ActionContext) error {
		fired++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`create rule w on stocks when updated then execute watch`)

	tx := db.Begin()
	if _, err := db.ExecIn(tx, `update stocks set price = 31 where symbol = 'S1'`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecIn(tx, `update stocks set price = 41 where symbol = 'S2'`); err != nil {
		t.Fatal(err)
	}
	// S1 is now 31, so only S2 (41) and S3 (50) match.
	if res, err := db.ExecIn(tx, `select symbol from stocks where price > 35`); err != nil || len(res.Rows) != 2 {
		t.Fatalf("select in txn: %v, %v", res, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	db.WaitIdle()
	if fired != 1 {
		t.Errorf("rule fired %d times for one grouped transaction, want 1", fired)
	}
	if _, err := db.ExecIn(db.Begin(), `create table x (a int)`); err == nil {
		t.Error("DDL inside transaction accepted")
	}
}

func TestRegisterScalarFunc(t *testing.T) {
	RegisterScalarFunc("twice", func(args []Value) (Value, error) {
		return Float(args[0].Float() * 2), nil
	})
	db := MustOpen(Config{Virtual: true})
	db.MustExec(`create table t (a float)`)
	db.MustExec(`insert into t values (21)`)
	res := db.MustExec(`select twice(a) as b from t`)
	if res.Rows[0][0].Float() != 42 {
		t.Errorf("twice = %v", res.Rows)
	}
}

func TestMustExecPanics(t *testing.T) {
	db := MustOpen(Config{Virtual: true})
	defer func() {
		if recover() == nil {
			t.Error("MustExec did not panic")
		}
	}()
	db.MustExec(`nonsense`)
}

func TestAdvanceToPanicsOnRealClock(t *testing.T) {
	db := MustOpen(Config{Workers: 1})
	defer db.Close()
	defer func() {
		if recover() == nil {
			t.Error("AdvanceTo on real clock did not panic")
		}
	}()
	db.AdvanceTo(1)
}

func TestTable1SimpleUpdateCost(t *testing.T) {
	db := setupPTA(t, Config{Virtual: true})
	db.ResetMeter()
	// A raw cursor-level one-tuple update (no rules, no SQL statement
	// overhead): Table 1's 172 µs path.
	tx := db.Begin()
	tbl, err := tx.WriteTable("stocks")
	if err != nil {
		t.Fatal(err)
	}
	db.Meter() // touch
	recs, _ := tbl.IndexLookup("symbol", Str("S1"))
	if _, err := tx.Update("stocks", recs[0], []Value{Str("S1"), Float(31)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	model := db.Model()
	charged := db.Meter()
	// BeginTxn + GetLock + IndexProbe(lookup is free at storage level; the
	// probe is charged by query paths) + UpdateCursor + Commit + ReleaseLock.
	want := model.BeginTxn + model.GetLock + model.UpdateCursor + model.CommitTxn + model.ReleaseLock
	if charged != want {
		t.Errorf("charged %g, want %g", charged, want)
	}
}

// A SELECT that fails mid-run has already pinned the rows it emitted; its
// read-only transaction still commits, so the failed run itself must let
// them go, or the versions a later update retires are held forever.
func TestFailedSelectReleasesRowPins(t *testing.T) {
	db := MustOpen(Config{})
	defer db.Close()
	db.MustExec(`create table t (k text, v int)`)
	db.MustExec(`insert into t values ('a', 1), ('b', 2), ('c', 0)`)
	if _, err := db.Exec(`select k, 10 / v as q from t`); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("select = %v, want a division by zero", err)
	}
	tbl, _ := db.Txns().Store.Get("t")
	tbl.Scan(func(r *storage.Record) bool {
		if r.Refs() != 0 {
			t.Errorf("row %v still holds %d pin(s) after the failed select", r.Value(0), r.Refs())
		}
		return true
	})
	db.MustExec(`update t set v = 5 where k = 'a'`)
	if got := tbl.Stats().RetiredHeld; got != 0 {
		t.Errorf("RetiredHeld = %d after updating a row the failed select emitted, want 0", got)
	}
}
