package query

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/cost"
	"github.com/stripdb/strip/internal/index"
	"github.com/stripdb/strip/internal/lock"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

// Randomized equivalence oracle: a few hundred generated SELECTs — joins,
// constant filters, aggregates, ORDER BY, LIMIT, a temp-table source —
// run through the streaming engine under every (planner, read-mode)
// combination and through a naive nested-loop reference evaluator over
// the raw rows. Any divergence is a planner or executor bug.

// oracleCol/oracleTable describe the fixture schema and data as plain
// values, shared between engine loading and the reference evaluator.
type oracleTable struct {
	name    string
	cols    []catalog.Column
	indexes []string
	temp    bool
	rows    [][]types.Value
}

func oracleTables(rng *rand.Rand) []oracleTable {
	stocks := oracleTable{
		name: "stocks",
		cols: []catalog.Column{
			{Name: "symbol", Kind: types.KindString},
			{Name: "sector", Kind: types.KindString},
			{Name: "price", Kind: types.KindFloat},
			{Name: "qty", Kind: types.KindInt},
		},
		indexes: []string{"symbol"},
	}
	for i := 0; i < 30; i++ {
		sector := types.Str(fmt.Sprintf("sec%d", i%5))
		if i%11 == 3 {
			sector = types.Null() // a NULL group key (and MIN/MAX input)
		}
		stocks.rows = append(stocks.rows, []types.Value{
			types.Str(fmt.Sprintf("S%02d", i)),
			sector,
			types.Float(float64(100 + 10*(i%4))),
			types.Int(int64(i % 7)),
		})
	}
	trades := oracleTable{
		name: "trades",
		cols: []catalog.Column{
			{Name: "trade_id", Kind: types.KindInt},
			{Name: "symbol", Kind: types.KindString},
			{Name: "qty", Kind: types.KindInt},
		},
		indexes: []string{"trade_id", "symbol"},
	}
	for i := 0; i < 90; i++ {
		trades.rows = append(trades.rows, []types.Value{
			types.Int(int64(i)),
			types.Str(fmt.Sprintf("S%02d", rng.Intn(30))),
			types.Int(int64(1 + i%9)),
		})
	}
	sectors := oracleTable{
		name: "sectors",
		cols: []catalog.Column{
			{Name: "sector", Kind: types.KindString},
			{Name: "region", Kind: types.KindString},
		},
	}
	for i := 0; i < 5; i++ {
		sectors.rows = append(sectors.rows, []types.Value{
			types.Str(fmt.Sprintf("sec%d", i)),
			types.Str(fmt.Sprintf("region%d", i%2)),
		})
	}
	boosts := oracleTable{
		name: "boosts",
		temp: true,
		cols: []catalog.Column{
			{Name: "symbol", Kind: types.KindString},
			{Name: "boost", Kind: types.KindFloat},
		},
	}
	for i := 0; i < 12; i++ {
		boosts.rows = append(boosts.rows, []types.Value{
			types.Str(fmt.Sprintf("S%02d", rng.Intn(30))),
			types.Float(float64(i) / 4),
		})
	}
	return []oracleTable{stocks, trades, sectors, boosts}
}

// oracleEnv loads the fixture into a fresh manager (std tables) and a
// temp-table resolver.
func oracleEnv(t *testing.T, tables []oracleTable) (*txn.Manager, Resolver) {
	t.Helper()
	cat := catalog.New()
	store := storage.NewStore()
	tmp := map[string]*storage.TempTable{}
	for _, ot := range tables {
		cols := make([]catalog.Column, len(ot.cols))
		copy(cols, ot.cols)
		schema := catalog.MustSchema(ot.name, cols...)
		if ot.temp {
			tt := storage.NewValueTempTable(schema)
			for _, r := range ot.rows {
				if err := tt.AppendValues(r...); err != nil {
					t.Fatal(err)
				}
			}
			tmp[ot.name] = tt
			continue
		}
		if err := cat.Define(schema); err != nil {
			t.Fatal(err)
		}
		tbl, err := store.Create(schema)
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range ot.indexes {
			if err := tbl.CreateIndex(col, index.Hash); err != nil {
				t.Fatal(err)
			}
		}
	}
	mgr := txn.NewManager(cat, store, lock.New(), clock.NewVirtual(), cost.NewMeter(), cost.Default())
	tx := mgr.Begin()
	for _, ot := range tables {
		if ot.temp {
			continue
		}
		for _, r := range ot.rows {
			if _, err := tx.Insert(ot.name, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return mgr, mixedResolver{tmp: tmp}
}

// refCol addresses a column of one chosen FROM source.
type refCol struct {
	src, col int
}

// refPred is a predicate over the chosen sources: column-vs-column (join)
// or column-vs-constant.
type refPred struct {
	op    CmpOp
	left  refCol
	right *refCol     // nil = constant
	c     types.Value // constant operand when right is nil
}

type refItem struct {
	col refCol
	agg AggKind
	as  string
}

// refQuery is a generated query in both worlds: enough structure for the
// reference evaluator, convertible to a *Select for the engine.
type refQuery struct {
	from    []int // indexes into the fixture table list
	preds   []refPred
	items   []refItem
	groupBy []refCol
	orderBy []string
	desc    bool
	limit   int
}

// joinable lists the meaningful equi-join column pairs of the fixture as
// (table name, column) pairs.
var joinable = [][2][2]string{
	{{"stocks", "symbol"}, {"trades", "symbol"}},
	{{"stocks", "sector"}, {"sectors", "sector"}},
	{{"boosts", "symbol"}, {"stocks", "symbol"}},
	{{"boosts", "symbol"}, {"trades", "symbol"}},
}

func colIndex(ot oracleTable, name string) int {
	for i, c := range ot.cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// genQuery builds one random query over the fixture.
func genQuery(rng *rand.Rand, tables []oracleTable) refQuery {
	var q refQuery
	n := 1 + rng.Intn(3)
	perm := rng.Perm(len(tables))
	q.from = perm[:n]

	srcOf := map[string]int{}
	for i, ti := range q.from {
		srcOf[tables[ti].name] = i
	}
	// Every applicable equi-join predicate between chosen tables, so the
	// join graph stays connected whenever the fixture allows it.
	for _, j := range joinable {
		li, lok := srcOf[j[0][0]]
		ri, rok := srcOf[j[1][0]]
		if !lok || !rok {
			continue
		}
		lc := refCol{li, colIndex(tables[q.from[li]], j[0][1])}
		rc := refCol{ri, colIndex(tables[q.from[ri]], j[1][1])}
		q.preds = append(q.preds, refPred{op: EQ, left: lc, right: &rc})
	}
	// Up to two constant filters against values drawn from the data, so
	// equality predicates sometimes match.
	for k := rng.Intn(3); k > 0; k-- {
		si := rng.Intn(n)
		ot := tables[q.from[si]]
		ci := rng.Intn(len(ot.cols))
		val := ot.rows[rng.Intn(len(ot.rows))][ci]
		var op CmpOp
		switch ot.cols[ci].Kind {
		case types.KindString:
			op = []CmpOp{EQ, NE}[rng.Intn(2)]
		default:
			op = []CmpOp{EQ, NE, LT, LE, GT, GE}[rng.Intn(6)]
		}
		q.preds = append(q.preds, refPred{op: op, left: refCol{si, ci}, c: val})
	}

	var numeric, all []refCol
	for si, ti := range q.from {
		for ci, c := range tables[ti].cols {
			all = append(all, refCol{si, ci})
			if c.Kind == types.KindInt || c.Kind == types.KindFloat {
				numeric = append(numeric, refCol{si, ci})
			}
		}
	}
	if len(numeric) > 0 && rng.Intn(10) < 4 {
		// Aggregate mode: GROUP BY over 0–4 columns of any kind (a column
		// may repeat, and the fixture's NULL sectors make NULL keys), a
		// random subset of them in the select list, and 1–3 aggregates of
		// any mix — COUNT-only lists and MIN/MAX over TEXT included.
		for w := rng.Intn(5); w > 0; w-- {
			g := all[rng.Intn(len(all))]
			q.groupBy = append(q.groupBy, g)
			if rng.Intn(4) > 0 {
				q.items = append(q.items, refItem{col: g, as: fmt.Sprintf("g%d", len(q.items))})
			}
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			agg := []AggKind{AggSum, AggCount, AggAvg, AggMin, AggMax}[rng.Intn(5)]
			target := all[rng.Intn(len(all))]
			if agg == AggSum || agg == AggAvg {
				target = numeric[rng.Intn(len(numeric))]
			}
			q.items = append(q.items, refItem{col: target, agg: agg, as: fmt.Sprintf("a%d", len(q.items))})
		}
		rng.Shuffle(len(q.items), func(i, j int) { q.items[i], q.items[j] = q.items[j], q.items[i] })
	} else {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			si := rng.Intn(n)
			ot := tables[q.from[si]]
			q.items = append(q.items, refItem{
				col: refCol{si, rng.Intn(len(ot.cols))},
				as:  fmt.Sprintf("c%d", len(q.items)),
			})
		}
	}

	if rng.Intn(2) == 0 {
		for _, it := range q.items {
			if rng.Intn(2) == 0 {
				q.orderBy = append(q.orderBy, it.as)
			}
		}
		q.desc = rng.Intn(2) == 0
	}
	if len(q.orderBy) > 0 && rng.Intn(10) < 4 {
		q.limit = 1 + rng.Intn(10)
	}
	return q
}

// toSelect converts the spec into an engine query.
func (q refQuery) toSelect(tables []oracleTable) *Select {
	sel := &Select{Desc: q.desc, Limit: q.limit}
	colRef := func(rc refCol) *ColRef {
		ot := tables[q.from[rc.src]]
		return QCol(ot.name, ot.cols[rc.col].Name)
	}
	for _, ti := range q.from {
		sel.From = append(sel.From, tables[ti].name)
	}
	for _, p := range q.preds {
		if p.right != nil {
			sel.Where = append(sel.Where, Cmp(colRef(p.left), p.op, colRef(*p.right)))
		} else {
			sel.Where = append(sel.Where, Cmp(colRef(p.left), p.op, Const(p.c)))
		}
	}
	for _, it := range q.items {
		if it.agg == AggNone {
			sel.Items = append(sel.Items, Item(colRef(it.col), it.as))
		} else {
			sel.Items = append(sel.Items, AggItem(it.agg, colRef(it.col), it.as))
		}
	}
	for _, g := range q.groupBy {
		sel.GroupBy = append(sel.GroupBy, colRef(g))
	}
	sel.OrderBy = append(sel.OrderBy, q.orderBy...)
	return sel
}

// sqlFrontEnd is the SQL front end as the oracle uses it. It lives in
// package sqlparse, which imports this one, so oracle_sql_test.go — in the
// external test package, which may import both — installs it.
var sqlFrontEnd struct {
	// parse is sqlparse.Parse for a SELECT.
	parse func(sql string) (*Select, error)
	// newCache returns a fresh statement cache's Prepare for SELECTs.
	newCache func() func(sql string) (*Select, []types.Value, error)
	// parses is sqlparse.ParseCalls.
	parses func() int64
}

// sqlable reports whether the query can be written as text: the grammar
// has no NULL literal.
func (q refQuery) sqlable() bool {
	for _, p := range q.preds {
		if p.right == nil && p.c.IsNull() {
			return false
		}
	}
	return true
}

// toSQL renders the query as statement text.
func (q refQuery) toSQL(tables []oracleTable) string {
	col := func(rc refCol) string {
		ot := tables[q.from[rc.src]]
		return ot.name + "." + ot.cols[rc.col].Name
	}
	lit := func(v types.Value) string {
		switch v.Kind() {
		case types.KindString:
			return "'" + strings.ReplaceAll(v.Str(), "'", "''") + "'"
		case types.KindFloat:
			s := strconv.FormatFloat(v.Float(), 'f', -1, 64)
			if !strings.Contains(s, ".") {
				s += ".0"
			}
			return s
		default:
			return strconv.FormatInt(v.Int(), 10)
		}
	}
	var items, from, preds, groups []string
	for _, it := range q.items {
		e := col(it.col)
		if it.agg != AggNone {
			e = it.agg.String() + "(" + e + ")"
		}
		items = append(items, e+" as "+it.as)
	}
	for _, ti := range q.from {
		from = append(from, tables[ti].name)
	}
	for _, p := range q.preds {
		var right string
		if p.right != nil {
			right = col(*p.right)
		} else {
			right = lit(p.c)
		}
		preds = append(preds, col(p.left)+" "+p.op.String()+" "+right)
	}
	for _, g := range q.groupBy {
		groups = append(groups, col(g))
	}
	sql := "select " + strings.Join(items, ", ") + " from " + strings.Join(from, ", ")
	if len(preds) > 0 {
		sql += " where " + strings.Join(preds, " and ")
	}
	if len(groups) > 0 {
		sql += " group by " + strings.Join(groups, ", ")
	}
	if len(q.orderBy) > 0 {
		sql += " order by " + strings.Join(q.orderBy, ", ")
		if q.desc {
			sql += " desc"
		}
	}
	if q.limit > 0 {
		sql += fmt.Sprintf(" limit %d", q.limit)
	}
	return sql
}

// otherLiterals returns the query with every constant redrawn from the
// same column's data: the same statement template, other parameters.
func (q refQuery) otherLiterals(rng *rand.Rand, tables []oracleTable) refQuery {
	out := q
	out.preds = append([]refPred(nil), q.preds...)
	for i, p := range out.preds {
		if p.right != nil {
			continue
		}
		rows := tables[q.from[p.left.src]].rows
		for try := 0; try < 20; try++ {
			if v := rows[rng.Intn(len(rows))][p.left.col]; !v.IsNull() {
				out.preds[i].c = v
				if v != p.c {
					break
				}
			}
		}
	}
	return out
}

func cmpVals(a, b types.Value) int { return a.Compare(b) }

// refEval runs the query naively: nested loops in FROM order, all
// predicates at the innermost level, aggregates worked out per bucket of
// joint rows.
func (q refQuery) refEval(tables []oracleTable) [][]types.Value {
	data := make([][][]types.Value, len(q.from))
	for i, ti := range q.from {
		data[i] = tables[ti].rows
	}
	cur := make([][]types.Value, len(q.from))
	var joint [][][]types.Value
	var walk func(level int)
	walk = func(level int) {
		if level == len(q.from) {
			for _, p := range q.preds {
				l := cur[p.left.src][p.left.col]
				r := p.c
				if p.right != nil {
					r = cur[p.right.src][p.right.col]
				}
				c := cmpVals(l, r)
				ok := false
				switch p.op {
				case EQ:
					ok = c == 0
				case NE:
					ok = c != 0
				case LT:
					ok = c < 0
				case LE:
					ok = c <= 0
				case GT:
					ok = c > 0
				case GE:
					ok = c >= 0
				}
				if !ok {
					return
				}
			}
			row := make([][]types.Value, len(cur))
			copy(row, cur)
			joint = append(joint, row)
			return
		}
		for _, r := range data[level] {
			cur[level] = r
			walk(level + 1)
		}
	}
	walk(0)

	aggregate := false
	for _, it := range q.items {
		if it.agg != AggNone {
			aggregate = true
		}
	}
	var out [][]types.Value
	if !aggregate {
		for _, jr := range joint {
			row := make([]types.Value, len(q.items))
			for i, it := range q.items {
				row[i] = jr[it.col.src][it.col.col]
			}
			out = append(out, row)
		}
	} else {
		// The naive model: bucket the joint rows by the rendered group key
		// (kind and value of every grouped column, so 1 and 1.0 differ as
		// they do in the engine), keep first-seen group order, then work
		// each aggregate out from its bucket's rows. Integer sums are exact
		// int64; the fixture's floats are multiples of 1/4, so float sums
		// are exact in any join order.
		buckets := map[string][][][]types.Value{}
		var seq []string
		for _, jr := range joint {
			keyVals := make([]types.Value, len(q.groupBy))
			for i, g := range q.groupBy {
				keyVals[i] = jr[g.src][g.col]
			}
			key := rowKey(keyVals)
			if _, ok := buckets[key]; !ok {
				seq = append(seq, key)
			}
			buckets[key] = append(buckets[key], jr)
		}
		for _, key := range seq {
			rows := buckets[key]
			row := make([]types.Value, len(q.items))
			for i, it := range q.items {
				kind := tables[q.from[it.col.src]].cols[it.col.col].Kind
				var isum int64
				var fsum float64
				var lo, hi types.Value
				for _, jr := range rows {
					v := jr[it.col.src][it.col.col]
					if v.Numeric() {
						fsum += v.Float()
						if v.Kind() == types.KindInt {
							isum += v.Int()
						}
					}
					if lo.IsNull() || v.Compare(lo) < 0 {
						lo = v
					}
					if hi.IsNull() || v.Compare(hi) > 0 {
						hi = v
					}
				}
				switch it.agg {
				case AggNone:
					row[i] = rows[0][it.col.src][it.col.col]
				case AggCount:
					row[i] = types.Int(int64(len(rows)))
				case AggSum:
					if kind == types.KindInt {
						row[i] = types.Int(isum)
					} else {
						row[i] = types.Float(fsum)
					}
				case AggAvg:
					row[i] = types.Float(fsum / float64(len(rows)))
				case AggMin:
					row[i] = lo
				case AggMax:
					row[i] = hi
				}
			}
			out = append(out, row)
		}
	}

	if len(q.orderBy) > 0 {
		cols := make([]int, len(q.orderBy))
		for i, name := range q.orderBy {
			for j, it := range q.items {
				if it.as == name {
					cols[i] = j
				}
			}
		}
		sort.SliceStable(out, func(a, b int) bool {
			for _, c := range cols {
				cmp := out[a][c].Compare(out[b][c])
				if cmp != 0 {
					if q.desc {
						return cmp > 0
					}
					return cmp < 0
				}
			}
			return false
		})
	}
	return out
}

func rowKey(r []types.Value) string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = fmt.Sprintf("%d:%s", v.Kind(), v.String())
	}
	return strings.Join(parts, "\x00")
}

func multiset(rows [][]types.Value) map[string]int {
	m := map[string]int{}
	for _, r := range rows {
		m[rowKey(r)]++
	}
	return m
}

func multisetEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// sortKeySeq extracts the ORDER BY key tuple of each row, in order.
func sortKeySeq(q refQuery, rows [][]types.Value) []string {
	cols := make([]int, len(q.orderBy))
	for i, name := range q.orderBy {
		for j, it := range q.items {
			if it.as == name {
				cols[i] = j
			}
		}
	}
	keys := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(cols))
		for j, c := range cols {
			parts[j] = r[c].String()
		}
		keys[i] = strings.Join(parts, "\x00")
	}
	return keys
}

func subMultiset(sub, super map[string]int) bool {
	for k, n := range sub {
		if super[k] < n {
			return false
		}
	}
	return true
}

// checkOracle compares one engine result against the reference, honoring
// ordering and LIMIT tie semantics: without ORDER BY results compare as
// multisets; with ORDER BY the sort-key sequence must match exactly (tie
// order within equal keys is unspecified); with LIMIT the engine rows
// must be a sub-multiset of the reference with the right key prefix.
func checkOracle(t *testing.T, q refQuery, label string, got [][]types.Value, want [][]types.Value) {
	t.Helper()
	fail := func(msg string) {
		t.Fatalf("%s: %s\nquery: %+v\ngot %d rows, want %d", label, msg, q, len(got), len(want))
	}
	if q.limit > 0 {
		wantN := len(want)
		if q.limit < wantN {
			wantN = q.limit
		}
		if len(got) != wantN {
			fail("row count under LIMIT")
		}
		if !subMultiset(multiset(got), multiset(want)) {
			fail("LIMIT rows are not drawn from the reference result")
		}
		wantKeys := sortKeySeq(q, want)[:wantN]
		gotKeys := sortKeySeq(q, got)
		for i := range wantKeys {
			if gotKeys[i] != wantKeys[i] {
				fail(fmt.Sprintf("sort-key prefix diverges at row %d", i))
			}
		}
		return
	}
	if !multisetEqual(multiset(got), multiset(want)) {
		fail("row multisets differ")
	}
	if len(q.orderBy) > 0 {
		wantKeys := sortKeySeq(q, want)
		gotKeys := sortKeySeq(q, got)
		for i := range wantKeys {
			if gotKeys[i] != wantKeys[i] {
				fail(fmt.Sprintf("sort-key order diverges at row %d", i))
			}
		}
	}
}

func TestOracleEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(8080))
	tables := oracleTables(rng)

	mgr, res := oracleEnv(t, tables)
	prepare := sqlFrontEnd.newCache() // the environment's statement cache
	// Redrawn literals come from their own stream so the generator's stays
	// what the coverage list below was tuned on.
	litRng := rand.New(rand.NewSource(8081))
	viaSQL := 0

	// covered records which of the shapes the row loop treats differently
	// the generator actually produced, so a reseed cannot quietly drop one.
	covered := map[string]bool{}
	const queries = 300
	for i := 0; i < queries; i++ {
		q := genQuery(rng, tables)
		want := q.refEval(tables)
		q.noteCoverage(tables, want, covered)
		q2 := q.otherLiterals(litRng, tables)
		want2 := q2.refEval(tables)
		if q.sqlable() {
			viaSQL++
		}
		for _, readMode := range []string{"locked", "snapshot"} {
			label := fmt.Sprintf("query %d (%s)", i, readMode)
			run := func(what string, q refQuery, want [][]types.Value, sel *Select, params []types.Value) {
				t.Helper()
				var tx *txn.Txn
				if readMode == "snapshot" {
					tx = mgr.BeginReadOnly()
				} else {
					tx = mgr.Begin()
				}
				out, err := sel.RunParams(tx, res, params)
				if err != nil {
					t.Fatalf("%s, %s: %v\nspec: %+v", label, what, err, q)
				}
				got := make([][]types.Value, out.Len())
				for r := range got {
					got[r] = out.Row(r)
				}
				out.Retire()
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				checkOracle(t, q, label+", "+what, got, want)
			}
			run("built", q, want, q.toSelect(tables), nil)
			if !q.sqlable() {
				continue
			}
			// The same query as text: parsed afresh, then through the
			// statement cache — first sight, repeat, and the repeat with
			// other literals of the same kinds, which must reuse the
			// first's template without parsing.
			sql := q.toSQL(tables)
			fresh, err := sqlFrontEnd.parse(sql)
			if err != nil {
				t.Fatalf("%s: parse %q: %v", label, sql, err)
			}
			run("parsed", q, want, fresh, nil)
			var template *Select
			for _, step := range []struct {
				what string
				q    refQuery
				want [][]types.Value
			}{{"cached, first sight", q, want}, {"cached, repeat", q, want}, {"cached, other literals", q2, want2}} {
				before := sqlFrontEnd.parses()
				sel, params, err := prepare(step.q.toSQL(tables))
				if err != nil {
					t.Fatalf("%s, %s: prepare %q: %v", label, step.what, sql, err)
				}
				if template == nil {
					template = sel
				} else if sel != template || sqlFrontEnd.parses() != before {
					t.Fatalf("%s, %s: %q missed the statement cache", label, step.what, step.q.toSQL(tables))
				}
				run(step.what, step.q, step.want, sel, params)
			}
		}
	}
	t.Logf("%d of %d generated queries also ran as text", viaSQL, queries)
	if viaSQL < queries*9/10 {
		t.Errorf("only %d of %d generated queries could be written as text", viaSQL, queries)
	}
	for _, shape := range []string{
		"group width 0", "group width 1", "group width 2", "group width 3", "group width 4",
		"null group key", "repeated group column", "several rows in a group",
		"min/max over text", "count only", "mixed aggregates",
		"order+limit projection", "order+limit aggregate",
	} {
		if !covered[shape] {
			t.Errorf("generator never produced: %s", shape)
		}
	}
}

// noteCoverage marks the shapes q exercises; want is its reference result.
func (q refQuery) noteCoverage(tables []oracleTable, want [][]types.Value, covered map[string]bool) {
	kinds := map[AggKind]bool{}
	for _, it := range q.items {
		if it.agg == AggNone {
			continue
		}
		kinds[it.agg] = true
		text := tables[q.from[it.col.src]].cols[it.col.col].Kind == types.KindString
		if text && (it.agg == AggMin || it.agg == AggMax) {
			covered["min/max over text"] = true
		}
	}
	limited := len(q.orderBy) > 0 && q.limit > 0 && len(want) > q.limit
	if len(kinds) == 0 {
		covered["order+limit projection"] = covered["order+limit projection"] || limited
		return
	}
	covered["order+limit aggregate"] = covered["order+limit aggregate"] || limited
	covered[fmt.Sprintf("group width %d", len(q.groupBy))] = true
	covered["count only"] = covered["count only"] || len(kinds) == 1 && kinds[AggCount]
	covered["mixed aggregates"] = covered["mixed aggregates"] || len(kinds) > 1
	seen := map[refCol]bool{}
	for _, g := range q.groupBy {
		covered["repeated group column"] = covered["repeated group column"] || seen[g]
		seen[g] = true
	}
	// Item positions of grouped columns show NULL keys in the result; a
	// COUNT above 1 shows a group that folded several rows.
	for _, row := range want {
		for i, it := range q.items {
			if it.agg == AggNone && row[i].IsNull() {
				covered["null group key"] = true
			}
			if it.agg == AggCount && row[i].Int() > 1 {
				covered["several rows in a group"] = true
			}
		}
	}
}
