package query

import (
	"fmt"
	"math/rand"
	"slices"
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

// env builds the paper's Figure 4 database: stocks S1/S2/S3 and composites
// C1 (S1,S3 @ 0.5) and C2 (S1 @ 0.3, S2 @ 0.7).
func env(t testing.TB) *txn.Manager {
	t.Helper()
	cat := catalog.New()
	store := storage.NewStore()
	mk := func(s *catalog.Schema) *storage.Table {
		if err := cat.Define(s); err != nil {
			t.Fatal(err)
		}
		tbl, err := store.Create(s)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	stocks := mk(catalog.MustSchema("stocks",
		catalog.Column{Name: "symbol", Kind: types.KindString},
		catalog.Column{Name: "price", Kind: types.KindFloat}))
	comps := mk(catalog.MustSchema("comps_list",
		catalog.Column{Name: "comp", Kind: types.KindString},
		catalog.Column{Name: "symbol", Kind: types.KindString},
		catalog.Column{Name: "weight", Kind: types.KindFloat}))
	mk(catalog.MustSchema("comp_prices",
		catalog.Column{Name: "comp", Kind: types.KindString},
		catalog.Column{Name: "price", Kind: types.KindFloat}))
	if err := stocks.CreateIndex("symbol", index.Hash); err != nil {
		t.Fatal(err)
	}
	if err := comps.CreateIndex("symbol", index.Hash); err != nil {
		t.Fatal(err)
	}

	mgr := txn.NewManager(cat, store, lock.New(), clock.NewVirtual(), cost.NewMeter(), cost.Default())
	tx := mgr.Begin()
	for _, r := range [][]types.Value{
		{types.Str("S1"), types.Float(30)},
		{types.Str("S2"), types.Float(40)},
		{types.Str("S3"), types.Float(50)},
	} {
		if _, err := tx.Insert("stocks", r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][]types.Value{
		{types.Str("C1"), types.Str("S1"), types.Float(0.5)},
		{types.Str("C1"), types.Str("S3"), types.Float(0.5)},
		{types.Str("C2"), types.Str("S1"), types.Float(0.3)},
		{types.Str("C2"), types.Str("S2"), types.Float(0.7)},
	} {
		if _, err := tx.Insert("comps_list", r); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][]types.Value{
		{types.Str("C1"), types.Float(40)},
		{types.Str("C2"), types.Float(37)},
	} {
		if _, err := tx.Insert("comp_prices", r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return mgr
}

func rows(tt *storage.TempTable) [][]types.Value {
	out := make([][]types.Value, tt.Len())
	for i := range out {
		out[i] = tt.Row(i)
	}
	return out
}

func TestSelectScanAll(t *testing.T) {
	mgr := env(t)
	tx := mgr.Begin()
	defer tx.Commit()
	q := &Select{
		Items: []SelectItem{Item(Col("symbol"), ""), Item(Col("price"), "")},
		From:  []string{"stocks"},
	}
	res, err := q.Run(tx, TxnResolver{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("got %d rows", res.Len())
	}
	if res.Schema().Name() != "result" {
		t.Errorf("default bind name = %s", res.Schema().Name())
	}
	if got := res.Value(0, 0).Str(); got != "S1" {
		t.Errorf("first symbol = %s", got)
	}
	// Pointer layout: one pointer per row, no materialized columns.
	if res.NumPtrs() != 1 {
		t.Errorf("NumPtrs = %d, want 1", res.NumPtrs())
	}
	res.Retire()
}

func TestSelectWhereFilter(t *testing.T) {
	mgr := env(t)
	tx := mgr.Begin()
	defer tx.Commit()
	q := &Select{
		Items: []SelectItem{Item(Col("symbol"), "")},
		From:  []string{"stocks"},
		Where: []Pred{Cmp(Col("price"), GT, Const(types.Float(35)))},
	}
	res, err := q.Run(tx, TxnResolver{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Retire()
	if res.Len() != 2 {
		t.Fatalf("got %d rows, want 2", res.Len())
	}
}

// The paper's Figure 3 condition query shape: join comps_list against
// changed stocks. Here we join comps_list with stocks on symbol.
func TestSelectIndexJoin(t *testing.T) {
	mgr := env(t)
	tx := mgr.Begin()
	defer tx.Commit()
	q := &Select{
		Items: []SelectItem{
			Item(QCol("comps_list", "comp"), ""),
			Item(QCol("comps_list", "weight"), ""),
			Item(QCol("stocks", "price"), ""),
		},
		From:  []string{"stocks", "comps_list"},
		Where: []Pred{Eq(QCol("comps_list", "symbol"), QCol("stocks", "symbol"))},
		Bind:  "matches",
	}
	res, err := q.Run(tx, TxnResolver{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Retire()
	if res.Len() != 4 {
		t.Fatalf("join produced %d rows, want 4", res.Len())
	}
	if res.Schema().Name() != "matches" {
		t.Errorf("bind name = %s", res.Schema().Name())
	}
	// Pointer layout: two pointer slots (comps_list rec, stocks rec).
	if res.NumPtrs() != 2 {
		t.Errorf("NumPtrs = %d, want 2", res.NumPtrs())
	}
	// S1 participates in both composites.
	count := map[string]int{}
	for _, r := range rows(res) {
		count[r[0].Str()]++
	}
	if count["C1"] != 2 || count["C2"] != 2 {
		t.Errorf("composite counts = %v", count)
	}
}

func TestSelectComputedColumn(t *testing.T) {
	mgr := env(t)
	tx := mgr.Begin()
	defer tx.Commit()
	q := &Select{
		Items: []SelectItem{
			Item(Col("symbol"), ""),
			Item(Arith(Col("price"), '*', Const(types.Float(2))), "double_price"),
		},
		From: []string{"stocks"},
	}
	res, err := q.Run(tx, TxnResolver{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Retire()
	if got := res.Value(0, 1).Float(); got != 60 {
		t.Errorf("computed = %g, want 60", got)
	}
	// Mixed layout: symbol by pointer, computed column materialized.
	if res.NumPtrs() != 1 {
		t.Errorf("NumPtrs = %d", res.NumPtrs())
	}
}

func TestSelectMissingAlias(t *testing.T) {
	mgr := env(t)
	tx := mgr.Begin()
	defer tx.Commit()
	q := &Select{
		Items: []SelectItem{Item(Arith(Col("price"), '+', Const(types.Float(1))), "")},
		From:  []string{"stocks"},
	}
	if _, err := q.Run(tx, TxnResolver{}); err == nil {
		t.Error("computed column without alias accepted")
	}
}

func TestSelectGroupBySum(t *testing.T) {
	mgr := env(t)
	tx := mgr.Begin()
	defer tx.Commit()
	// The comp_prices view definition (paper §3):
	// select comp, sum(price*weight) from stocks, comps_list
	// where stocks.symbol = comps_list.symbol group by comp.
	comp := QCol("comps_list", "comp")
	q := &Select{
		Items: []SelectItem{
			Item(comp, ""),
			AggItem(AggSum, Arith(QCol("stocks", "price"), '*', QCol("comps_list", "weight")), "price"),
		},
		From:    []string{"stocks", "comps_list"},
		Where:   []Pred{Eq(QCol("stocks", "symbol"), QCol("comps_list", "symbol"))},
		GroupBy: []*ColRef{comp},
	}
	res, err := q.Run(tx, TxnResolver{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Retire()
	if res.Len() != 2 {
		t.Fatalf("groups = %d, want 2", res.Len())
	}
	got := map[string]float64{}
	for _, r := range rows(res) {
		got[r[0].Str()] = r[1].Float()
	}
	// C1 = 0.5*30 + 0.5*50 = 40; C2 = 0.3*30 + 0.7*40 = 37 (Figure 4).
	if got["C1"] != 40 || got["C2"] != 37 {
		t.Errorf("composite prices = %v, want C1=40 C2=37", got)
	}
}

func TestSelectAggregates(t *testing.T) {
	mgr := env(t)
	tx := mgr.Begin()
	defer tx.Commit()
	q := &Select{
		Items: []SelectItem{
			AggItem(AggCount, Col("price"), "n"),
			AggItem(AggAvg, Col("price"), "avg_p"),
			AggItem(AggMin, Col("price"), "min_p"),
			AggItem(AggMax, Col("price"), "max_p"),
			AggItem(AggSum, Col("price"), "sum_p"),
		},
		From: []string{"stocks"},
	}
	res, err := q.Run(tx, TxnResolver{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Retire()
	if res.Len() != 1 {
		t.Fatalf("global aggregate rows = %d", res.Len())
	}
	r := res.Row(0)
	if r[0].Int() != 3 || r[1].Float() != 40 || r[2].Float() != 30 || r[3].Float() != 50 || r[4].Float() != 120 {
		t.Errorf("aggregates = %v", r)
	}
}

// TestSumIntExact: the sum of an INT column accumulates in int64, so it is
// exact past 2^53 where a float64 accumulator rounds; AVG and a sum with a
// FLOAT operand stay on the float path; and an ungrouped aggregate over no
// input rows yields no row.
func TestSumIntExact(t *testing.T) {
	cat := catalog.New()
	store := storage.NewStore()
	schema := catalog.MustSchema("ledger",
		catalog.Column{Name: "amount", Kind: types.KindInt},
		catalog.Column{Name: "rate", Kind: types.KindFloat})
	if err := cat.Define(schema); err != nil {
		t.Fatal(err)
	}
	tbl, err := store.Create(schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, amount := range []int64{1 << 53, 1, 1} {
		if _, err := tbl.Insert([]types.Value{types.Int(amount), types.Float(0.5)}); err != nil {
			t.Fatal(err)
		}
	}
	mgr := txn.NewManager(cat, store, lock.New(), clock.NewVirtual(), cost.NewMeter(), cost.Default())
	run := func(q *Select) [][]types.Value {
		t.Helper()
		tx := mgr.BeginReadOnly()
		defer tx.Commit()
		res, err := q.Run(tx, TxnResolver{})
		if err != nil {
			t.Fatal(err)
		}
		defer res.Retire()
		return rows(res)
	}

	got := run(&Select{From: []string{"ledger"}, Items: []SelectItem{
		AggItem(AggSum, Col("amount"), "s"),
		AggItem(AggSum, Arith(Col("amount"), '*', Const(types.Int(1))), "s1"),
		AggItem(AggAvg, Col("amount"), "a"),
		AggItem(AggSum, Arith(Col("amount"), '*', Col("rate")), "sf"),
	}})
	// The float path rounds as float64 does: 2^53+1 and 2^52+0.5 both
	// round back down, so those two results show the +1s lost.
	want := []types.Value{
		types.Int(1<<53 + 2), types.Int(1<<53 + 2),
		types.Float(float64(1<<53) / 3), types.Float(1 << 52),
	}
	if len(got) != 1 || !slices.Equal(got[0], want) {
		t.Errorf("sums = %v, want [%v]", got, want)
	}

	none := run(&Select{
		From:  []string{"ledger"},
		Items: []SelectItem{AggItem(AggSum, Col("amount"), "s"), AggItem(AggCount, Col("amount"), "n")},
		Where: []Pred{Cmp(Col("amount"), LT, Const(types.Int(0)))},
	})
	if len(none) != 0 {
		t.Errorf("ungrouped aggregate over no rows = %v, want no rows", none)
	}
}

func TestSelectGroupByValidation(t *testing.T) {
	mgr := env(t)
	tx := mgr.Begin()
	defer tx.Commit()
	// Non-aggregated column not in GROUP BY.
	q := &Select{
		Items: []SelectItem{
			Item(Col("symbol"), ""),
			AggItem(AggSum, Col("price"), "s"),
		},
		From:    []string{"stocks"},
		GroupBy: []*ColRef{Col("price")},
	}
	if _, err := q.Run(tx, TxnResolver{}); err == nil {
		t.Error("ungrouped column accepted")
	}
	// GROUP BY without aggregates.
	q2 := &Select{
		Items:   []SelectItem{Item(Col("symbol"), "")},
		From:    []string{"stocks"},
		GroupBy: []*ColRef{Col("symbol")},
	}
	if _, err := q2.Run(tx, TxnResolver{}); err == nil {
		t.Error("GROUP BY without aggregates accepted")
	}
}

func TestSelectErrors(t *testing.T) {
	mgr := env(t)
	tx := mgr.Begin()
	defer tx.Commit()
	cases := []*Select{
		{Items: []SelectItem{Item(Col("symbol"), "")}, From: []string{"missing"}},
		{Items: []SelectItem{Item(Col("nope"), "")}, From: []string{"stocks"}},
		{Items: []SelectItem{Item(Col("symbol"), "")}, From: []string{"stocks", "comps_list"}}, // ambiguous
		{Items: []SelectItem{Item(Col("symbol"), "")}},                                         // empty FROM
		{Items: []SelectItem{{}}, From: []string{"stocks"}},                                    // nil expr
		{Items: []SelectItem{Item(Call("no_such_fn", Col("price")), "x")}, From: []string{"stocks"}},
	}
	for i, q := range cases {
		if _, err := q.Run(tx, TxnResolver{}); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSelectScalarFunc(t *testing.T) {
	RegisterFunc("half", func(args []types.Value) (types.Value, error) {
		return types.Float(args[0].Float() / 2), nil
	})
	mgr := env(t)
	tx := mgr.Begin()
	defer tx.Commit()
	q := &Select{
		Items: []SelectItem{Item(Call("half", Col("price")), "hp")},
		From:  []string{"stocks"},
		Where: []Pred{Eq(Col("symbol"), Const(types.Str("S1")))},
	}
	res, err := q.Run(tx, TxnResolver{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Retire()
	if res.Len() != 1 || res.Value(0, 0).Float() != 15 {
		t.Errorf("func result = %v", rows(res))
	}
}

func TestSelectConstPredicate(t *testing.T) {
	mgr := env(t)
	tx := mgr.Begin()
	defer tx.Commit()
	q := &Select{
		Items: []SelectItem{Item(Col("symbol"), "")},
		From:  []string{"stocks"},
		Where: []Pred{Cmp(Const(types.Int(1)), EQ, Const(types.Int(2)))},
	}
	res, err := q.Run(tx, TxnResolver{})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Retire()
	if res.Len() != 0 {
		t.Error("false constant predicate returned rows")
	}
}

// Selecting from a temp table whose columns point at standard records must
// pass the pointers through to the result (paper §6.1 pass-through).
func TestSelectOverTempTablePassThrough(t *testing.T) {
	mgr := env(t)
	tx := mgr.Begin()
	defer tx.Commit()

	stocks, _ := mgr.Store.Get("stocks")
	var s1 *storage.Record
	stocks.Scan(func(r *storage.Record) bool {
		if r.Value(0).Str() == "S1" {
			s1 = r
			return false
		}
		return true
	})
	tmpSchema := catalog.MustSchema("new",
		catalog.Column{Name: "symbol", Kind: types.KindString},
		catalog.Column{Name: "price", Kind: types.KindFloat})
	tmp, err := storage.NewTempTable(tmpSchema,
		[]storage.ColSource{storage.FromRecord(0, 0), storage.FromRecord(0, 1)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tmp.AppendRow([]*storage.Record{s1}, nil); err != nil {
		t.Fatal(err)
	}
	defer tmp.Retire()

	res := mixedResolver{tmp: map[string]*storage.TempTable{"new": tmp}}
	q := &Select{
		Items: []SelectItem{
			Item(QCol("comps_list", "comp"), ""),
			Item(QCol("new", "price"), "new_price"),
		},
		From:  []string{"new", "comps_list"},
		Where: []Pred{Eq(QCol("comps_list", "symbol"), QCol("new", "symbol"))},
	}
	out, err := q.Run(tx, res)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Retire()
	if out.Len() != 2 { // S1 is in C1 and C2
		t.Fatalf("rows = %d, want 2", out.Len())
	}
	// Both columns resolve by pointer: comps_list record + the stocks record
	// behind the temp table. Nothing materialized.
	if out.NumPtrs() != 2 {
		t.Errorf("NumPtrs = %d, want 2", out.NumPtrs())
	}
	if got := out.Value(0, 1).Float(); got != 30 {
		t.Errorf("new_price = %g", got)
	}
}

type mixedResolver struct {
	tmp map[string]*storage.TempTable
}

func (m mixedResolver) Resolve(tx *txn.Txn, name string) (*storage.Table, *storage.TempTable, error) {
	if tt, ok := m.tmp[name]; ok {
		return nil, tt, nil
	}
	return TxnResolver{}.Resolve(tx, name)
}

// Property-style test: index join and pure nested-loop join agree on a
// randomized dataset.
func TestIndexJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cat := catalog.New()
	store := storage.NewStore()
	aSchema := catalog.MustSchema("a",
		catalog.Column{Name: "k", Kind: types.KindInt},
		catalog.Column{Name: "v", Kind: types.KindInt})
	bSchema := catalog.MustSchema("b",
		catalog.Column{Name: "k", Kind: types.KindInt},
		catalog.Column{Name: "w", Kind: types.KindInt})
	if err := cat.Define(aSchema); err != nil {
		t.Fatal(err)
	}
	if err := cat.Define(bSchema); err != nil {
		t.Fatal(err)
	}
	ta, _ := store.Create(aSchema)
	tb, _ := store.Create(bSchema)
	if err := tb.CreateIndex("k", index.RedBlack); err != nil {
		t.Fatal(err)
	}
	mgr := txn.NewManager(cat, store, lock.New(), clock.NewVirtual(), cost.NewMeter(), cost.Default())
	tx := mgr.Begin()
	for i := 0; i < 60; i++ {
		if _, err := ta.Insert([]types.Value{types.Int(int64(rng.Intn(10))), types.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Insert([]types.Value{types.Int(int64(rng.Intn(10))), types.Int(int64(i * 10))}); err != nil {
			t.Fatal(err)
		}
	}

	run := func(from []string) map[string]int {
		q := &Select{
			Items: []SelectItem{
				Item(QCol("a", "v"), ""),
				Item(QCol("b", "w"), ""),
			},
			From:  from,
			Where: []Pred{Eq(QCol("a", "k"), QCol("b", "k"))},
		}
		res, err := q.Run(tx, TxnResolver{})
		if err != nil {
			t.Fatal(err)
		}
		defer res.Retire()
		out := map[string]int{}
		for _, r := range rows(res) {
			out[fmt.Sprintf("%v|%v", r[0], r[1])]++
		}
		return out
	}
	// a then b: probes b's index. b then a: nested loop (a unindexed).
	ab := run([]string{"a", "b"})
	ba := run([]string{"b", "a"})
	if len(ab) != len(ba) {
		t.Fatalf("join results differ in size: %d vs %d", len(ab), len(ba))
	}
	for k, n := range ab {
		if ba[k] != n {
			t.Fatalf("join results differ at %s: %d vs %d", k, n, ba[k])
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
