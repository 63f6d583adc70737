package strip

import (
	"fmt"
	"strings"
	"testing"

	"github.com/stripdb/strip/internal/obs"
	"github.com/stripdb/strip/internal/sqlparse"
)

// cacheDB loads the repo benchmark's schema in small: 400 stocks priced
// 100.., 20 composites of 10 members, the benchmark's three indexes.
func cacheDB(t testing.TB) *DB {
	t.Helper()
	db := MustOpen(Config{Workers: 1})
	t.Cleanup(func() { db.Close() }) //nolint:errcheck
	db.MustExec(`create table stocks (symbol text, price int)`)
	db.MustExec(`create table comps_list (comp text, symbol text, weight int)`)
	var rows []string
	for i := 0; i < 400; i++ {
		rows = append(rows, fmt.Sprintf("('S%04d', %d)", i, 100+i%150))
	}
	db.MustExec(`insert into stocks values ` + strings.Join(rows, ", "))
	rows = rows[:0]
	for c := 0; c < 20; c++ {
		for m := 0; m < 10; m++ {
			rows = append(rows, fmt.Sprintf("('C%03d', 'S%04d', %d)", c, (37*c+11*m)%400, 1+m))
		}
	}
	db.MustExec(`insert into comps_list values ` + strings.Join(rows, ", "))
	db.MustExec(`create index on stocks (symbol)`)
	db.MustExec(`create index on comps_list (comp)`)
	return db
}

// The benchmark's three hot statement shapes; i varies the literals the way
// its generator does (the point statement's second literal never repeats).
func pointSQL(i int) string {
	return fmt.Sprintf("select symbol, price from stocks where symbol = 'S%04d' and price < %d", i%400, 1_000_000+i)
}

func joinSQL(i int) string {
	return fmt.Sprintf("select sum(weight*price) as v from comps_list, stocks "+
		"where comps_list.comp = 'C%03d' and stocks.symbol = comps_list.symbol", i%20)
}

func updateSQL(i int) string {
	return fmt.Sprintf("update stocks set price = %d where symbol = 'S%04d'", 100+i%150, i%400)
}

// DDL between two runs of one template: the template stays in the statement
// cache (no parse), its plan is rebuilt against the catalog as it now is,
// and the rows are right — for CREATE INDEX (scan becomes probe) and for
// DROP + re-CREATE of the table with its columns in another order.
func TestStatementCacheAcrossDDL(t *testing.T) {
	db := MustOpen(Config{Workers: 1})
	defer db.Close() //nolint:errcheck
	db.MustExec(`create table kv (k text, v int)`)
	db.MustExec(`insert into kv values ('a', 1), ('b', 2), ('c', 3)`)
	builds := db.Obs().Counter(obs.MQueryPlanBuilds)

	sel := func(k string, wantV int64) {
		t.Helper()
		res, err := db.Exec(fmt.Sprintf(`select v from kv where k = '%s'`, k))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].Int() != wantV {
			t.Fatalf("k = %s: rows %v, want [[%d]]", k, res.Rows, wantV)
		}
	}
	upd := func(k string, v int) {
		t.Helper()
		res, err := db.Exec(fmt.Sprintf(`update kv set v = %d where k = '%s'`, v, k))
		if err != nil || res.Affected != 1 {
			t.Fatalf("update k = %s: affected %v, err %v", k, res, err)
		}
	}
	plan := func() string {
		t.Helper()
		text, err := db.Explain(`select v from kv where k = 'b'`)
		if err != nil {
			t.Fatal(err)
		}
		return text
	}

	sel("a", 1)
	upd("a", 10)
	if p := plan(); !strings.Contains(p, "scan kv") || !strings.Contains(p, "k = b") {
		t.Fatalf("unindexed plan, with the statement's literal written back:\n%s", p)
	}
	parses, b0 := sqlparse.ParseCalls(), builds.Load()
	sel("a", 10)
	sel("c", 3)
	if got := builds.Load() - b0; got != 0 {
		t.Fatalf("repeat runs built %d plans, want 0", got)
	}

	db.MustExec(`create index on kv (k)`)
	parses++ // the DDL itself
	b0 = builds.Load()
	sel("b", 2)
	upd("b", 20)
	sel("b", 20)
	if got := builds.Load() - b0; got != 1 {
		t.Fatalf("after CREATE INDEX the select built %d plans, want 1", got)
	}
	if p := plan(); !strings.Contains(p, "probe kv.k = b") {
		t.Fatalf("indexed plan:\n%s", p)
	}

	db.MustExec(`drop table kv`)
	db.MustExec(`create table kv (v int, k text)`)
	db.MustExec(`insert into kv values (7, 'a'), (8, 'b')`)
	parses += 3
	b0 = builds.Load()
	sel("a", 7)
	upd("b", 80)
	sel("b", 80)
	if got := builds.Load() - b0; got != 1 {
		t.Fatalf("after DROP + CREATE the select built %d plans, want 1", got)
	}
	if got := sqlparse.ParseCalls(); got != parses {
		t.Fatalf("parser ran %d times more than the DDL statements account for", got-parses)
	}
}

// A cache-hit point select through DB.Exec stays under its allocation
// ceiling (89 allocations when every statement was parsed and planned).
func TestStatementCacheHitAllocs(t *testing.T) {
	db := cacheDB(t)
	i := 0
	run := func() {
		i++
		if res, err := db.Exec(pointSQL(i)); err != nil || len(res.Rows) != 1 {
			t.Fatalf("%v, %v", res, err)
		}
	}
	run()
	// fmt.Sprintf of the statement text is 3 of these.
	if got := testing.AllocsPerRun(200, run); got > 30+3 {
		t.Errorf("cache-hit point select: %.0f allocs per run, ceiling 30 + 3 for building the text", got)
	}
}

func benchStmt(b *testing.B, sql func(int) string) {
	db := cacheDB(b)
	if _, err := db.Exec(sql(0)); err != nil {
		b.Fatal(err)
	}
	texts := make([]string, b.N)
	for i := range texts {
		texts[i] = sql(i + 1)
	}
	before := sqlparse.ParseCalls()
	b.ReportAllocs()
	b.ResetTimer()
	for _, text := range texts {
		if _, err := db.Exec(text); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := sqlparse.ParseCalls() - before; got != 0 {
		b.Fatalf("%d parses in %d cache hits", got, b.N)
	}
}

// BenchmarkStmtCacheHit*: DB.Exec of a statement whose template is cached —
// scan the text, look the key up, execute with the text's literals.
func BenchmarkStmtCacheHitPoint(b *testing.B)  { benchStmt(b, pointSQL) }
func BenchmarkStmtCacheHitJoin(b *testing.B)   { benchStmt(b, joinSQL) }
func BenchmarkStmtCacheHitUpdate(b *testing.B) { benchStmt(b, updateSQL) }

// BenchmarkStmtCacheMiss: DB.Exec of a point select whose template has not
// been seen — scan, parse, compile, plan, execute, and (past the cache's
// capacity) an eviction.
func BenchmarkStmtCacheMiss(b *testing.B) {
	db := cacheDB(b)
	texts := make([]string, b.N)
	for i := range texts {
		texts[i] = fmt.Sprintf("select symbol, price as p%d from stocks where symbol = 'S%04d' and price < %d", i, i%400, 1_000_000+i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, text := range texts {
		if _, err := db.Exec(text); err != nil {
			b.Fatal(err)
		}
	}
}
