package sqlparse

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/cost"
	"github.com/stripdb/strip/internal/index"
	"github.com/stripdb/strip/internal/lock"
	"github.com/stripdb/strip/internal/query"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

// The key keeps everything that shapes the plan — identifiers, operators,
// LIMIT's count, each literal's kind — and drops what does not: case,
// spacing, comments and the literals' values.
func TestNormalizeKey(t *testing.T) {
	key := func(src string) (string, []types.Value) {
		t.Helper()
		k, params, ok, err := normalize(src, nil)
		if !ok || err != nil {
			t.Fatalf("normalize(%q): ok=%v err=%v", src, ok, err)
		}
		return string(k), params
	}
	k, params := key(`select a, b from t where b = 5 and c < 5.5 and d = 'it''s' order by a limit 10;`)
	if want := `select a , b from t where b = ?i and c < ?f and d = ?s order by a limit 10 ;`; k != want {
		t.Errorf("key = %q\nwant  %q", k, want)
	}
	if want := []types.Value{types.Int(5), types.Float(5.5), types.Str("it's")}; fmt.Sprint(params) != fmt.Sprint(want) || params[0].Kind() != types.KindInt || params[1].Kind() != types.KindFloat {
		t.Errorf("params = %v, want %v", params, want)
	}
	same, _ := key("SELECT a,b FROM t -- the hot one\n WHERE b=7 AND c<.25 AND d='' ORDER BY a LIMIT 10 ;")
	if same != k {
		t.Errorf("respelt statement keyed %q, want %q", same, k)
	}
	for _, other := range []string{
		`select a, b from t where b = 5.0 and c < 5.5 and d = 'x' order by a limit 10;`, // float where int was
		`select a, b from t where b = 5 and c < 5.5 and d = 'x' order by a limit 11;`,   // another LIMIT
		`select a, b from t where b = 5 and c < 5.5 and d = 6 order by a limit 10;`,     // int where text was
	} {
		if got, _ := key(other); got == k {
			t.Errorf("%q shares the key %q", other, k)
		}
	}
	for _, src := range []string{
		`insert into t values ('a', 1)`, `create table t (a int)`, `explain select a from t`,
		`create rule r on t when inserted then execute f after 5 ms`, `drop table t`, ``, `(`,
	} {
		if _, _, ok, err := normalize(src, nil); ok || err != nil {
			t.Errorf("normalize(%q): ok=%v err=%v, want a statement the cache passes by", src, ok, err)
		}
	}
}

// Statements outside SELECT / UPDATE / DELETE are parsed as written, every
// time, and never enter the table; a rejected text is not cached either.
func TestCacheBypass(t *testing.T) {
	c := NewCache()
	for i := 0; i < 2; i++ {
		for _, src := range []string{
			`insert into t values ('a', 1), ('b', 2)`,
			`create rule r on t when inserted then execute f after 5 ms`,
			`explain select a from t where a = 1`,
			`select from`,
		} {
			before := ParseCalls()
			stmt, params, err := c.Prepare(src)
			if got := ParseCalls() - before; got != 1 {
				t.Errorf("%q parsed %d times, want 1", src, got)
			}
			if want, werr := Parse(src); fmt.Sprint(werr) != fmt.Sprint(err) || render(want) != render(stmt) || params != nil {
				t.Errorf("%q: Prepare = %s, %v, %v; Parse = %s, %v", src, render(stmt), params, err, render(want), werr)
			}
		}
	}
	if c.Len() != 0 {
		t.Errorf("cache holds %d statements, want 0", c.Len())
	}
}

// Ten times the capacity in distinct templates leaves the table at capacity
// and the heap where it was at capacity.
func TestCacheEviction(t *testing.T) {
	c := NewCache()
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	fill := func(from, to int) {
		for i := from; i < to; i++ {
			if _, _, err := c.Prepare(fmt.Sprintf(`select c%d, sum(v) as s from t where k = 'k' and v < 5 group by c%d`, i, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill(0, cacheCap)
	if c.Len() != cacheCap {
		t.Fatalf("cache holds %d statements after %d templates", c.Len(), cacheCap)
	}
	atCap := heap()
	fill(cacheCap, 10*cacheCap)
	if c.Len() != cacheCap {
		t.Fatalf("cache holds %d statements after %d templates, want %d", c.Len(), 10*cacheCap, cacheCap)
	}
	if after := heap(); after > atCap+atCap/4+(1<<20) {
		t.Errorf("heap grew from %d to %d bytes over nine more capacities of templates", atCap, after)
	}
	// Whatever was evicted, every statement still prepares.
	if _, _, err := c.Prepare(`select c0, sum(v) as s from t where k = 'k' and v < 5 group by c0`); err != nil {
		t.Fatal(err)
	}
}

// render writes a statement out in full — every expression with its literal
// kinds — so two parses can be compared.
func render(stmt Stmt) string {
	var b strings.Builder
	var expr func(e query.Expr)
	expr = func(e query.Expr) {
		switch x := e.(type) {
		case nil:
			b.WriteString("<nil>")
		case *query.ConstExpr:
			fmt.Fprintf(&b, "%s:%q", x.Val.Kind(), x.Val.String())
		case *query.ParamExpr:
			fmt.Fprintf(&b, "?%d:%s", x.Index, x.Kind)
		case *query.ColRef:
			fmt.Fprintf(&b, "col(%s.%s)", x.Table, x.Col)
		case *query.BinExpr:
			b.WriteString("(")
			expr(x.Left)
			fmt.Fprintf(&b, " %c ", x.Op)
			expr(x.Right)
			b.WriteString(")")
		case *query.FuncExpr:
			b.WriteString(x.Name + "(")
			for _, a := range x.Args {
				expr(a)
				b.WriteString(",")
			}
			b.WriteString(")")
		}
	}
	preds := func(ps []query.Pred) {
		for _, p := range ps {
			b.WriteString(" [")
			expr(p.Left)
			b.WriteString(" " + p.Op.String() + " ")
			expr(p.Right)
			b.WriteString("]")
		}
	}
	sel := func(q *query.Select) {
		fmt.Fprintf(&b, "select star=%v from=%v order=%v desc=%v limit=%d bind=%q items:", q.Star, q.From, q.OrderBy, q.Desc, q.Limit, q.Bind)
		for _, it := range q.Items {
			fmt.Fprintf(&b, " {%s ", it.Agg)
			expr(it.Expr)
			fmt.Fprintf(&b, " as %q}", it.As)
		}
		b.WriteString(" where:")
		preds(q.Where)
		b.WriteString(" group:")
		for _, g := range q.GroupBy {
			expr(g)
		}
	}
	switch s := stmt.(type) {
	case nil:
		return "<nil>"
	case *SelectStmt:
		sel(s.Query)
	case *ExplainStmt:
		b.WriteString("explain ")
		sel(s.Query)
	case *UpdateStmt:
		fmt.Fprintf(&b, "update %s set:", s.Stmt.Table)
		for _, sc := range s.Stmt.Set {
			fmt.Fprintf(&b, " {%s add=%v ", sc.Col, sc.AddTo)
			expr(sc.Expr)
			b.WriteString("}")
		}
		b.WriteString(" where:")
		preds(s.Stmt.Where)
	case *DeleteStmt:
		fmt.Fprintf(&b, "delete %s where:", s.Stmt.Table)
		preds(s.Stmt.Where)
	case *InsertStmt:
		fmt.Fprintf(&b, "insert %s %v", s.Stmt.Table, s.Stmt.Rows)
	case *CreateRule:
		r := *s.Rule
		r.Condition, r.Evaluate = nil, nil
		fmt.Fprintf(&b, "rule %+v", r)
		for _, q := range append(append([]*query.Select{}, s.Rule.Condition...), s.Rule.Evaluate...) {
			b.WriteString(" ")
			sel(q)
		}
	case *CreateView:
		fmt.Fprintf(&b, "view %s ", s.Name)
		sel(s.Query)
	default:
		fmt.Fprintf(&b, "%T %+v", stmt, stmt)
	}
	return b.String()
}

// bind writes a template's placeholders back out as the literals in params.
func bind(stmt Stmt, params []types.Value) Stmt {
	preds := func(ps []query.Pred) []query.Pred {
		out := make([]query.Pred, len(ps))
		for i, p := range ps {
			out[i] = query.Cmp(query.BindParams(p.Left, params), p.Op, query.BindParams(p.Right, params))
		}
		return out
	}
	switch s := stmt.(type) {
	case *SelectStmt:
		return &SelectStmt{Query: s.Query.WithParams(params)}
	case *UpdateStmt:
		u := &query.UpdateStmt{Table: s.Stmt.Table, Where: preds(s.Stmt.Where)}
		for _, sc := range s.Stmt.Set {
			u.Set = append(u.Set, query.SetClause{Col: sc.Col, Expr: query.BindParams(sc.Expr, params), AddTo: sc.AddTo})
		}
		return &UpdateStmt{Stmt: u}
	case *DeleteStmt:
		return &DeleteStmt{Stmt: &query.DeleteStmt{Table: s.Stmt.Table, Where: preds(s.Stmt.Where)}}
	}
	return stmt
}

// fuzzEnv is a small database for running what the fuzzer manages to write:
// t (k text indexed, v int, f float) with six rows.
func fuzzEnv(t testing.TB) *txn.Manager {
	t.Helper()
	cat, store := catalog.New(), storage.NewStore()
	schema := catalog.MustSchema("t",
		catalog.Column{Name: "k", Kind: types.KindString},
		catalog.Column{Name: "v", Kind: types.KindInt},
		catalog.Column{Name: "f", Kind: types.KindFloat})
	if err := cat.Define(schema); err != nil {
		t.Fatal(err)
	}
	tbl, err := store.Create(schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("k", index.Hash); err != nil {
		t.Fatal(err)
	}
	mgr := txn.NewManager(cat, store, lock.New(), clock.NewVirtual(), cost.NewMeter(), cost.Default())
	tx := mgr.Begin()
	for i := 0; i < 6; i++ {
		if _, err := tx.Insert("t", []types.Value{types.Str(fmt.Sprintf("k%d", i%4)), types.Int(int64(i)), types.Float(float64(i) / 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return mgr
}

// outcome runs a SELECT, UPDATE or DELETE and describes what it did: the
// rows or the count, or the error. Writes are rolled back.
func outcome(mgr *txn.Manager, stmt Stmt, params []types.Value) string {
	tx := mgr.Begin()
	defer tx.Abort() //nolint:errcheck // nothing is kept
	switch s := stmt.(type) {
	case *SelectStmt:
		out, err := s.Query.RunParams(tx, query.TxnResolver{}, params)
		if err != nil {
			return "error: " + err.Error()
		}
		defer out.Retire()
		rows := make([][]types.Value, out.Len())
		for i := range rows {
			rows[i] = out.Row(i)
		}
		return fmt.Sprintf("%v %v", out.Schema(), rows)
	case *UpdateStmt:
		n, err := s.Stmt.RunParams(tx, params)
		return fmt.Sprintf("%d %v", n, err)
	case *DeleteStmt:
		n, err := s.Stmt.RunParams(tx, params)
		return fmt.Sprintf("%d %v", n, err)
	}
	return "not run"
}

// FuzzNormalize: for any text, preparing it through the statement cache and
// parsing it agree — on the error string, or on the statement (the template
// with its literals bound back in is the parsed statement) and on what
// running it returns. Each input is prepared twice, so the second time runs
// the template a first parse left behind.
func FuzzNormalize(f *testing.F) {
	for _, seed := range []string{
		`select k, v from t where k = 'k1' and v < 1000001`,
		`SELECT k , v FROM t WHERE k='k2' AND v<7 -- respelt`,
		`select sum(v*f) as s from t where f >= 0.5`,
		`select k, count(v) as n, max(f) as m from t where v <> 3 group by k order by k desc limit 2`,
		`select v + 1 as a, f * 2.5 as b, 'x' as c, -v as d from t where 1 = 1 and v - 1 < 3`,
		`select 7 as n from t limit 1`,
		`select * from t where 'k1' = k bind as snap`,
		`select k from t where v = 2 limit 0`,
		`select k from t where v < 99999999999999999999`,
		`select k from t where k = 'unterminated`,
		`select nope from t where v = 1`,
		`select k from missing where v = 1`,
		`select v / 0 as z from t`,
		`update t set v = 5 where k = 'k1'`,
		`update t set v += 2, f = f + 0.25 where k = 'k3' and v > 1;`,
		`update t set k = 'it''s' where v = 4`,
		`update t set nope = 1`,
		`delete from t where k = 'k0' and f < 9.5`,
		`delete from t`,
		`insert into t values ('z', 1, 1.5), ('y', -2, 0.0)`,
		`explain select k from t where v = 1`,
		`create rule r on t when updated v if select k from new bind as m then execute f unique on k after 1.5 seconds`,
		`create table u (a int)`,
		`select k from t where v = 1 limit`,
		`limit 5`,
		`select limit from t where limit = 5 limit 5`,
		`seleCt 000from t`, // an error message that quotes a literal
	} {
		f.Add(seed)
	}
	mgr := fuzzEnv(f)
	cache := NewCache()
	f.Fuzz(func(t *testing.T, src string) {
		parsed, perr := Parse(src)
		for round := 0; round < 2; round++ {
			stmt, params, err := cache.Prepare(src)
			if fmt.Sprint(err) != fmt.Sprint(perr) {
				t.Fatalf("%q, round %d: Prepare says %v, Parse says %v", src, round, err, perr)
			}
			if err != nil {
				continue
			}
			if got, want := render(bind(stmt, params)), render(parsed); got != want {
				t.Fatalf("%q, round %d: template with %v bound back is\n%s\nparsed:\n%s", src, round, params, got, want)
			}
			if got, want := outcome(mgr, stmt, params), outcome(mgr, parsed, nil); got != want {
				t.Fatalf("%q, round %d: through the cache: %s\nparsed: %s", src, round, got, want)
			}
		}
	})
}

// The repo benchmark's three hot statements: what scanning one into its key
// and parameters costs on every call, hit or miss.
func benchNormalize(b *testing.B, src string) {
	var buf [256]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, ok, err := normalize(src, buf[:0]); !ok || err != nil {
			b.Fatal(ok, err)
		}
	}
}

func BenchmarkNormalizePoint(b *testing.B) {
	benchNormalize(b, `select symbol, price from stocks where symbol = 'S0042' and price < 1000123`)
}

func BenchmarkNormalizeJoin(b *testing.B) {
	benchNormalize(b, `select sum(weight*price) as v from comps_list, stocks `+
		`where comps_list.comp = 'C007' and stocks.symbol = comps_list.symbol`)
}

func BenchmarkNormalizeUpdate(b *testing.B) {
	benchNormalize(b, `update stocks set price = 137 where symbol = 'S0042'`)
}
