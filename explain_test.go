package strip

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// EXPLAIN renders the chosen operator tree with estimated and actual row
// counts per operator, through both the Go API and the SQL surface.
func TestExplain(t *testing.T) {
	db := setupPTA(t, Config{Workers: 1})
	defer db.Close()

	text, err := db.Explain(`select comp, price
		from comps_list, stocks
		where comps_list.symbol = stocks.symbol`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"est=", "act=", "project", "comps_list"} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN output missing %q:\n%s", want, text)
		}
	}
	// Actual counts come from a real execution: the join yields 4 rows.
	if !strings.Contains(text, "act=4") {
		t.Errorf("EXPLAIN did not report the project operator's 4 rows:\n%s", text)
	}

	// The SQL-level statement returns one plan line per row.
	res, err := db.Exec(`explain select symbol from stocks where symbol = 'S2'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "plan" || len(res.Rows) == 0 {
		t.Fatalf("explain result shape: cols=%v rows=%d", res.Columns, len(res.Rows))
	}
	var joined strings.Builder
	for _, r := range res.Rows {
		joined.WriteString(r[0].Str())
		joined.WriteByte('\n')
	}
	// The constant symbol predicate should become an index probe.
	if !strings.Contains(joined.String(), "probe") {
		t.Errorf("constant-key plan did not use the index:\n%s", joined.String())
	}

	if _, err := db.Explain(`insert into stocks values ('S9', 1)`); err == nil {
		t.Error("Explain accepted a non-query statement")
	}
}

// benchShapesDB opens an engine holding the repo benchmark's schema in
// small: 40 stocks priced 100..139, two composites of five members each,
// every join and lookup column indexed.
func benchShapesDB(t *testing.T) *DB {
	t.Helper()
	db := MustOpen(Config{Workers: 1})
	loadBenchShapes(t, db)
	return db
}

// loadBenchShapes creates and fills benchShapesDB's tables in db.
func loadBenchShapes(t *testing.T, db *DB) {
	t.Helper()
	exec := func(sql string) {
		t.Helper()
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	exec(`create table stocks (symbol text, price int)`)
	exec(`create table comps_list (comp text, symbol text, weight int)`)
	for i := 0; i < 40; i++ {
		exec(fmt.Sprintf(`insert into stocks values ('S%02d', %d)`, i, 100+i))
	}
	for c := 0; c < 2; c++ {
		for m := 0; m < 5; m++ {
			exec(fmt.Sprintf(`insert into comps_list values ('C%d', 'S%02d', %d)`, c, 7*m+c, 1+m))
		}
	}
	exec(`create index on stocks (symbol)`)
	exec(`create index on comps_list (symbol)`)
	exec(`create index on comps_list (comp)`)
}

// TestExplainBenchShapes pins what every operator of the three read_mix
// statement shapes counts as actual rows (the repo benchmark derives
// query.rows_examined_per_row.* from the leaves' counts): a leaf counts
// each row it yields, a filter each row it passes, a join each joined row,
// the sink each row it puts out.
func TestExplainBenchShapes(t *testing.T) {
	db := benchShapesDB(t)
	defer db.Close()
	for _, tc := range []struct {
		sql  string
		want []string // operator and its act=, top down
	}{
		{`select sum(price) as s from stocks`,
			[]string{"aggregate act=1", "scan act=40"}},
		{`select symbol, price from stocks where price >= 120`,
			[]string{"project act=20", "filter act=20", "scan act=40"}},
		{`select sum(weight*price) as v from comps_list, stocks
			where comps_list.comp = 'C1' and stocks.symbol = comps_list.symbol`,
			[]string{"aggregate act=1", "join act=5", "probe act=5", "probe act=5"}},
	} {
		text, err := db.Explain(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		var got []string
		for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
			op := strings.Fields(line)[0]
			act := line[strings.LastIndex(line, "act="):]
			got = append(got, op+" "+strings.TrimSuffix(act, ")"))
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s:\n%s operators count %v, want %v", tc.sql, text, got, tc.want)
		}
	}
}

// TestExplainGoldens pins the whole EXPLAIN text of six plan shapes, byte
// for byte: which operators a run reports, in which order, with which
// details and estimates, and what each counted when the run stopped early
// (LIMIT) or never reached a level (an outer filter rejecting every row, a
// constant-false WHERE).
func TestExplainGoldens(t *testing.T) {
	db := benchShapesDB(t)
	defer db.Close()
	for _, tc := range []struct{ name, sql, want string }{
		{"filtered scan", `select symbol, price from stocks where price >= 120`, `
project symbol, price (est=13.3 act=20)
  filter price >= 120 (est=13.3 act=20)
    scan stocks snapshot (est=40 act=40)
`},
		{"probe join with a filter", `select comp, price from comps_list, stocks
			where comps_list.comp = 'C1' and stocks.symbol = comps_list.symbol and price > 110`, `
project comp, price (est=1.7 act=3)
  join nested loop (est=1.7 act=3)
    probe comps_list.comp = C1 (est=5 act=5)
    filter price > 110 (est=1.7 act=3)
      probe stocks.symbol = comps_list.symbol (est=5 act=5)
`},
		{"join filtered empty", `select comp, price from comps_list, stocks
			where comps_list.comp = 'C1' and weight > 100 and stocks.symbol = comps_list.symbol`, `
project comp, price (est=1.7 act=0)
  join nested loop (est=1.7 act=0)
    filter weight > 100 (est=1.7 act=0)
      probe comps_list.comp = C1 (est=5 act=5)
    probe stocks.symbol = comps_list.symbol (est=1.7 act=0)
`},
		{"aggregate join under limit", `select comp, sum(weight*price) as v from comps_list, stocks
			where stocks.symbol = comps_list.symbol group by comp limit 1`, `
limit 1 (est=1 act=1)
  aggregate comp, sum((weight * price)) group by comp (est=10 act=2)
    join nested loop (est=10 act=10)
      scan comps_list snapshot (est=10 act=10)
      probe stocks.symbol = comps_list.symbol (est=10 act=10)
`},
		{"projection join under limit", `select comps_list.symbol, price from comps_list, stocks
			where stocks.symbol = comps_list.symbol limit 1`, `
limit 1 (est=1 act=1)
  project comps_list.symbol, price (est=10 act=1)
    join nested loop (est=10 act=1)
      scan comps_list snapshot (est=10 act=1)
      probe stocks.symbol = comps_list.symbol (est=10 act=1)
`},
		{"constant-false where", `select symbol from stocks where 1 = 2`, `
project symbol (est=40 act=0)
  scan stocks unopened (est=40 act=0)
`},
	} {
		text, err := db.Explain(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := strings.TrimPrefix(tc.want, "\n"); text != want {
			t.Errorf("%s: EXPLAIN reads\n%s\nwant\n%s", tc.name, text, want)
		}
	}
}

// TestEmptyAggregateNoRow pins that an aggregate without GROUP BY over no
// input rows returns no row at all, not SQL's one row of COUNT 0.
func TestEmptyAggregateNoRow(t *testing.T) {
	db := MustOpen(Config{Workers: 1})
	defer db.Close()
	for _, sql := range []string{
		`create table s (p int)`,
		`insert into s values (1)`,
		`insert into s values (2)`,
	} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	res, err := db.Exec(`select count(p) as n from s where p > 100`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("count over no rows returned %v, want no row", res.Rows)
	}
}
