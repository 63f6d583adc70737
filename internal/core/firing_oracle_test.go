package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/query"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/types"
)

// The firing oracle: seeded multi-statement transactions run against the
// engine and against refEngine below, a small reference implementation of
// the paper's §2 (transition tables without net-effect reduction, condition
// and evaluate queries, bind as, commit_time) and Appendix A (unique
// transactions, partitioning by unique columns, merging into the queued
// task) that works from names and maps, as plainly as the text reads. Task
// count, unique keys and every bound table's rows must agree exactly.

// oracleCols is the base table t(k, g, h, v); k is the row's identity and
// never changes.
var oracleCols = []string{"k", "g", "h", "v"}

// oracleBind describes one bound query in a form both a query.Select and
// the reference can be built from: project cols of one transition table
// (or of new ⋈ old on execute_order, old's columns prefixed old_) under
// alias names, keeping rows with v >= minV.
type oracleBind struct {
	name  string
	from  string // inserted, deleted, new, old, or pair
	cols  []string
	alias []string
	minV  float64
	cond  bool // a condition query (must be non-empty), else an evaluate query
}

type oracleRule struct {
	name, fn    string
	events      []EventSpec
	binds       []oracleBind
	transitions []string
	unique      bool
	uniqueOn    []string
	commitTime  bool
}

func (b oracleBind) selectStmt() *query.Select {
	q := &query.Select{Bind: b.name}
	vTable := b.from
	if b.from == "pair" {
		q.From = []string{"new", "old"}
		q.Where = []query.Pred{query.Eq(query.QCol("new", ExecuteOrderCol), query.QCol("old", ExecuteOrderCol))}
		vTable = "new"
	} else {
		q.From = []string{b.from}
	}
	q.Where = append(q.Where, query.Cmp(query.QCol(vTable, "v"), query.GE, query.Const(types.Float(b.minV))))
	for i, c := range b.cols {
		table := vTable
		if name, old := strings.CutPrefix(c, "old_"); old {
			table, c = "old", name
		}
		q.Items = append(q.Items, query.Item(query.QCol(table, c), b.alias[i]))
	}
	return q
}

func (r oracleRule) rule() *Rule {
	out := &Rule{
		Name: r.name, Table: "t", Events: r.events, Action: r.fn,
		Unique: r.unique, UniqueOn: r.uniqueOn, BindCommitTime: r.commitTime, BindTransitions: r.transitions,
	}
	for _, b := range r.binds {
		if b.cond {
			out.Condition = append(out.Condition, b.selectStmt())
		} else {
			out.Evaluate = append(out.Evaluate, b.selectStmt())
		}
	}
	return out
}

// refRec is one write-log record: op is 'i', 'd' or 'u'.
type refRec struct {
	op       byte
	old, new []types.Value
	seq      int64
}

// refTask is a queued action: its function, its unique key (nil for a
// non-unique task) and its bound tables' rows by table name.
type refTask struct {
	fn    string
	key   []types.Value
	bound map[string][][]types.Value
}

type refEngine struct {
	rules   []oracleRule
	pending map[string]*refTask // function + key → queued unique task
	queued  []*refTask          // every queued task, in creation order
}

func colIndex(name string) int { return slices.Index(oracleCols, name) }

// commit processes one transaction's log at engine time now.
func (e *refEngine) commit(log []refRec, now int64) {
	// §2: inserted/deleted hold the images of inserts and deletes, new/old
	// the two images of each update, every change in execution order.
	trans := map[string][][]types.Value{}
	add := func(name string, row []types.Value, seq int64) {
		trans[name] = append(trans[name], append(slices.Clone(row), types.Int(seq)))
	}
	for _, rec := range log {
		switch rec.op {
		case 'i':
			add("inserted", rec.new, rec.seq)
		case 'd':
			add("deleted", rec.old, rec.seq)
		case 'u':
			add("new", rec.new, rec.seq)
			add("old", rec.old, rec.seq)
		}
	}
	for _, r := range e.rules {
		if !refTriggered(r, log) {
			continue
		}
		bound, ok := map[string][][]types.Value{}, true
		for _, b := range r.binds {
			rows := refSelect(b, trans)
			if b.cond && len(rows) == 0 {
				ok = false
				break
			}
			bound[b.name] = rows
		}
		if !ok {
			continue
		}
		for _, name := range r.transitions {
			bound[name] = slices.Clone(trans[name])
		}
		if r.commitTime {
			for name, rows := range bound {
				stamped := make([][]types.Value, len(rows))
				for i, row := range rows {
					stamped[i] = append(slices.Clone(row), types.Time(now))
				}
				bound[name] = stamped
			}
		}
		e.fire(r, bound)
	}
}

func refTriggered(r oracleRule, log []refRec) bool {
	for _, rec := range log {
		for _, ev := range r.events {
			switch {
			case ev.Kind == Inserted && rec.op == 'i', ev.Kind == Deleted && rec.op == 'd':
				return true
			case ev.Kind == Updated && rec.op == 'u':
				if len(ev.Columns) == 0 {
					return true
				}
				for _, c := range ev.Columns {
					if !rec.old[colIndex(c)].Equal(rec.new[colIndex(c)]) {
						return true
					}
				}
			}
		}
	}
	return false
}

func refSelect(b oracleBind, trans map[string][][]types.Value) [][]types.Value {
	var out [][]types.Value
	from := b.from
	if from == "pair" {
		from = "new"
	}
	for _, row := range trans[from] {
		if row[colIndex("v")].Float() < b.minV {
			continue
		}
		var old []types.Value
		if b.from == "pair" {
			for _, o := range trans["old"] {
				if o[len(oracleCols)].Equal(row[len(oracleCols)]) {
					old = o
				}
			}
		}
		res := make([]types.Value, len(b.cols))
		for i, c := range b.cols {
			if name, isOld := strings.CutPrefix(c, "old_"); isOld {
				res[i] = old[colIndex(name)]
			} else {
				res[i] = row[colIndex(c)]
			}
		}
		out = append(out, res)
	}
	return out
}

// fire is Appendix A: a non-unique firing is its own task; a unique one
// joins the queued task of its function and unique-column values, one per
// combination in the projection on the unique columns of the product of the
// tables that hold them.
func (e *refEngine) fire(r oracleRule, bound map[string][][]types.Value) {
	if !r.unique {
		e.queued = append(e.queued, &refTask{fn: r.fn, bound: bound})
		return
	}
	type part struct {
		key   []types.Value
		bound map[string][][]types.Value
	}
	parts := []part{{bound: map[string][][]types.Value{}}}
	// Which bound table holds each unique column, and at which position.
	colsOf := func(table string) (names []string) {
		for _, b := range r.binds {
			if b.name == table {
				return b.alias
			}
		}
		return append(slices.Clone(oracleCols), ExecuteOrderCol)
	}
	uniqueTables := map[string][]int{} // table → positions in uniqueOn it holds
	for i, u := range r.uniqueOn {
		for name := range bound {
			if slices.Contains(colsOf(name), u) {
				uniqueTables[name] = append(uniqueTables[name], i)
			}
		}
	}
	names := make([]string, 0, len(bound))
	for name := range bound {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rows, held := bound[name], uniqueTables[name]
		if held == nil {
			for i := range parts {
				parts[i].bound[name] = rows // T^a: whole, to every partition
			}
			continue
		}
		// Distinct values of this table's unique columns.
		keyOf := func(row []types.Value) []types.Value {
			k := make([]types.Value, len(held))
			for j, ui := range held {
				k[j] = row[slices.Index(colsOf(name), r.uniqueOn[ui])]
			}
			return k
		}
		var distinct [][]types.Value
		for _, row := range rows {
			if !slices.ContainsFunc(distinct, func(k []types.Value) bool { return slices.Equal(k, keyOf(row)) }) {
				distinct = append(distinct, keyOf(row))
			}
		}
		var next []part
		for _, p := range parts {
			for _, k := range distinct {
				np := part{key: make([]types.Value, len(r.uniqueOn)), bound: map[string][][]types.Value{}}
				copy(np.key, p.key)
				for j, ui := range held {
					np.key[ui] = k[j]
				}
				for n, rs := range p.bound {
					np.bound[n] = rs
				}
				for _, row := range rows {
					if slices.Equal(keyOf(row), k) {
						np.bound[name] = append(np.bound[name], row)
					}
				}
				next = append(next, np)
			}
		}
		parts = next
	}
	for _, p := range parts {
		if p.key == nil {
			p.key = []types.Value{}
		}
		id := r.fn + fmt.Sprint(p.key)
		if t := e.pending[id]; t != nil {
			for name, rows := range p.bound {
				t.bound[name] = append(t.bound[name], rows...)
			}
			continue
		}
		t := &refTask{fn: r.fn, key: p.key, bound: map[string][][]types.Value{}}
		for name, rows := range p.bound {
			t.bound[name] = slices.Clone(rows)
		}
		e.pending[id] = t
		e.queued = append(e.queued, t)
	}
}

// render prints a task for comparison: function, key and every bound
// table's rows in order.
func render(fn string, key []types.Value, bound map[string][][]types.Value) string {
	names := make([]string, 0, len(bound))
	for n := range bound {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s key=%v", fn, key)
	for _, n := range names {
		fmt.Fprintf(&sb, " %s=%v", n, bound[n])
	}
	return sb.String()
}

func boundRows(names []string, tables []*storage.TempTable) map[string][][]types.Value {
	out := map[string][][]types.Value{}
	for i, n := range names {
		for r := 0; r < tables[i].Len(); r++ {
			out[n] = append(out[n], tables[i].Row(r))
		}
		if len(out[n]) == 0 {
			out[n] = nil
		}
	}
	return out
}

// oracleRules draws a rule set: three rules on t, the third executing the
// first's function with the same bound tables (rules of one function merge
// into one queued task).
func oracleRules(rng *rand.Rand) []oracleRule {
	events := func() []EventSpec {
		var ev []EventSpec
		if rng.Intn(2) == 0 {
			ev = append(ev, EventSpec{Kind: Inserted})
		}
		if rng.Intn(2) == 0 {
			ev = append(ev, EventSpec{Kind: Deleted})
		}
		if len(ev) == 0 || rng.Intn(3) > 0 {
			var cols []string
			for _, c := range []string{"g", "h", "v"} {
				if rng.Intn(2) == 0 {
					cols = append(cols, c)
				}
			}
			ev = append(ev, EventSpec{Kind: Updated, Columns: cols})
		}
		return ev
	}
	shape := func(name, fn string) oracleRule {
		r := oracleRule{name: name, fn: fn, events: events(), commitTime: rng.Intn(3) == 0}
		a := oracleBind{name: "a", from: []string{"new", "pair", "inserted"}[rng.Intn(3)],
			cols: []string{"g", "k", "v"}, alias: []string{"ga", "ka", "va"}, cond: rng.Intn(2) == 0}
		if a.from == "pair" {
			a.cols = []string{"g", "k", "old_v"}
		}
		b := oracleBind{name: "b", from: []string{"old", "deleted", "new"}[rng.Intn(3)],
			cols: []string{"h", "k"}, alias: []string{"hb", "kb"}, minV: float64(rng.Intn(3) * 20)}
		switch rng.Intn(5) {
		case 0: // bind new, old: the raw transition tables, batched whole
			r.transitions = []string{"new", "old"}
			r.unique = rng.Intn(2) == 0
		case 1: // unique on one column of one table
			r.binds, r.unique, r.uniqueOn = []oracleBind{a}, true, []string{"ga"}
		case 2: // two columns, one table, and a table without unique columns
			r.binds, r.unique, r.uniqueOn = []oracleBind{a, b}, true, []string{"ka", "ga"}
		case 3: // two columns, two tables: the product
			r.binds, r.unique, r.uniqueOn = []oracleBind{a, b}, true, []string{"ga", "hb"}
			r.transitions = []string{"inserted"}
		default: // not unique
			r.binds = []oracleBind{a, b}
		}
		return r
	}
	r1, r2 := shape("r1", "f1"), shape("r2", "f2")
	r3 := r1
	r3.name, r3.events = "r3", events()
	return []oracleRule{r1, r2, r3}
}

func TestFiringOracle(t *testing.T) {
	var tasks, uniqueTasks, keyed int
	defer func() {
		t.Logf("%d tasks compared, %d of them queued unique tasks, %d with a non-empty key", tasks, uniqueTasks, keyed)
		if tasks == 0 || keyed == 0 || tasks == uniqueTasks {
			t.Error("the generator does not cover both unique and non-unique, keyed and unkeyed firings")
		}
	}()
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rules := oracleRules(rng)
		ref := &refEngine{rules: rules, pending: map[string]*refTask{}}

		db := newTestDB(t)
		db.mkTable(catalog.MustSchema("t",
			catalog.Column{Name: "k", Kind: types.KindString},
			catalog.Column{Name: "g", Kind: types.KindString},
			catalog.Column{Name: "h", Kind: types.KindInt},
			catalog.Column{Name: "v", Kind: types.KindFloat}), "k")
		var ran []string
		for _, fn := range []string{"f1", "f2"} {
			db.register(fn, func(ctx *ActionContext) error {
				ran = append(ran, render(fn, nil, boundRows(ctx.BoundNames(), ctx.bound)))
				return nil
			})
		}
		for _, r := range rules {
			db.mustCreate(r.rule())
		}
		rows := map[string][]types.Value{}
		nextKey := 0

		for batch := 0; batch < 6; batch++ {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				db.clk.AdvanceTo(db.clk.Now() + int64(1+rng.Intn(1000)))
				tx := db.txns.Begin()
				tbl, err := tx.WriteTable("t")
				if err != nil {
					t.Fatal(err)
				}
				var log []refRec
				for op := 1 + rng.Intn(40); op > 0; op-- {
					keys := make([]string, 0, len(rows))
					for k := range rows {
						keys = append(keys, k)
					}
					sort.Strings(keys)
					switch c := rng.Intn(10); {
					case c < 3 || len(keys) == 0:
						row := []types.Value{types.Str(fmt.Sprintf("k%03d", nextKey)), types.Str(fmt.Sprintf("g%d", rng.Intn(4))),
							types.Int(int64(rng.Intn(3))), types.Float(float64(rng.Intn(60)))}
						nextKey++
						if _, err := tx.Insert("t", row); err != nil {
							t.Fatal(err)
						}
						rows[row[0].Str()] = row
						log = append(log, refRec{op: 'i', new: row})
					case c < 5:
						k := keys[rng.Intn(len(keys))]
						recs, _ := tbl.IndexLookup("k", types.Str(k))
						if err := tx.Delete("t", recs[0]); err != nil {
							t.Fatal(err)
						}
						log = append(log, refRec{op: 'd', old: rows[k]})
						delete(rows, k)
					default:
						// Update a subset of the columns, sometimes to the
						// value they already have.
						k := keys[rng.Intn(len(keys))]
						row := slices.Clone(rows[k])
						if rng.Intn(2) == 0 {
							row[1] = types.Str(fmt.Sprintf("g%d", rng.Intn(4)))
						}
						if rng.Intn(2) == 0 {
							row[2] = types.Int(int64(rng.Intn(3)))
						}
						if rng.Intn(2) == 0 {
							row[3] = types.Float(float64(rng.Intn(60)))
						}
						recs, _ := tbl.IndexLookup("k", types.Str(k))
						if _, err := tx.Update("t", recs[0], row); err != nil {
							t.Fatal(err)
						}
						log = append(log, refRec{op: 'u', old: rows[k], new: row})
						rows[k] = row
					}
					log[len(log)-1].seq = int64(len(log))
				}
				if err := tx.Commit(); err != nil {
					t.Fatalf("seed %d: commit: %v", seed, err)
				}
				ref.commit(log, db.clk.Now())
			}

			// The queued unique tasks, key by key, before anything runs.
			var got, want []string
			for fn, set := range db.engine.sets {
				for key, f := range set.pending {
					names := make([]string, len(f.ctx.sig))
					for i, s := range f.ctx.sig {
						names[i] = s.Name()
					}
					got = append(got, render(fn, key.Values(), boundRows(names, f.ctx.bound)))
					uniqueTasks++
					if key.Len() > 0 {
						keyed++
					}
				}
			}
			for _, task := range ref.pending {
				want = append(want, render(task.fn, task.key, task.bound))
			}
			sort.Strings(got)
			sort.Strings(want)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d batch %d: queued unique tasks\n got %s\nwant %s\nrules %+v",
					seed, batch, strings.Join(got, "\n     "), strings.Join(want, "\n     "), rules)
			}
			// Then every task, as its action sees it.
			ran, want = nil, nil
			db.drain()
			for _, task := range ref.queued {
				want = append(want, render(task.fn, nil, task.bound))
			}
			ref.queued, ref.pending = nil, map[string]*refTask{}
			tasks += len(ran)
			sort.Strings(ran)
			sort.Strings(want)
			if !slices.Equal(ran, want) {
				t.Fatalf("seed %d batch %d: %d tasks ran, want %d\n got %s\nwant %s\nrules %+v",
					seed, batch, len(ran), len(want), strings.Join(ran, "\n     "), strings.Join(want, "\n     "), rules)
			}
		}
	}
}
