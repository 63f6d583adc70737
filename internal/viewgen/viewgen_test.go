package viewgen

import (
	"strings"
	"testing"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/obs"
	"github.com/stripdb/strip/internal/query"
	"github.com/stripdb/strip/internal/types"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, s := range []*catalog.Schema{
		catalog.MustSchema("stocks",
			catalog.Column{Name: "symbol", Kind: types.KindString},
			catalog.Column{Name: "price", Kind: types.KindFloat}),
		catalog.MustSchema("comps_list",
			catalog.Column{Name: "comp", Kind: types.KindString},
			catalog.Column{Name: "symbol", Kind: types.KindString},
			catalog.Column{Name: "weight", Kind: types.KindFloat}),
		catalog.MustSchema("options_list",
			catalog.Column{Name: "option_symbol", Kind: types.KindString},
			catalog.Column{Name: "stock_symbol", Kind: types.KindString},
			catalog.Column{Name: "strike", Kind: types.KindFloat}),
	} {
		if err := cat.Define(s); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// compPricesDef is the paper's comp_prices view definition (§3):
// select comp, sum(price*weight) as price from stocks, comps_list
// where stocks.symbol = comps_list.symbol group by comp.
func compPricesDef() *query.Select {
	comp := query.QCol("comps_list", "comp")
	return &query.Select{
		Items: []query.SelectItem{
			query.Item(comp, ""),
			query.AggItem(query.AggSum,
				query.Arith(query.QCol("stocks", "price"), '*', query.QCol("comps_list", "weight")),
				"price"),
		},
		From:    []string{"stocks", "comps_list"},
		Where:   []query.Pred{query.Eq(query.QCol("stocks", "symbol"), query.QCol("comps_list", "symbol"))},
		GroupBy: []*query.ColRef{comp},
	}
}

// optionPricesDef is the option_prices view shape:
// select option_symbol, f(price, strike) as price from stocks, options_list
// where stocks.symbol = options_list.stock_symbol.
func optionPricesDef() *query.Select {
	return &query.Select{
		Items: []query.SelectItem{
			query.Item(query.QCol("options_list", "option_symbol"), ""),
			query.Item(query.Call("test_price", query.QCol("stocks", "price"), query.QCol("options_list", "strike")), "price"),
		},
		From:  []string{"stocks", "options_list"},
		Where: []query.Pred{query.Eq(query.QCol("stocks", "symbol"), query.QCol("options_list", "stock_symbol"))},
	}
}

func TestAnalyzeAggregation(t *testing.T) {
	cat := testCatalog(t)
	sp, err := Analyze(cat, "comp_prices", compPricesDef())
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind != Aggregation {
		t.Errorf("kind = %v", sp.Kind)
	}
	if sp.Base() != "stocks" || sp.Dim() != "comps_list" {
		t.Errorf("base/dim = %s/%s", sp.Base(), sp.Dim())
	}
	if sp.KeyColumn() != "comp" || sp.ValueColumn() != "price" {
		t.Errorf("key/value = %s/%s", sp.KeyColumn(), sp.ValueColumn())
	}
	if len(sp.baseCols) != 1 || sp.baseCols[0] != "price" {
		t.Errorf("baseCols = %v", sp.baseCols)
	}
	schema, err := sp.ViewSchema(cat)
	if err != nil {
		t.Fatal(err)
	}
	if schema.NumCols() != 3 || schema.Col(0).Name != "comp" || schema.Col(1).Kind != types.KindFloat {
		t.Errorf("view schema wrong: %v", schema.Columns())
	}
	if schema.Col(2).Name != CountColumn || schema.Col(2).Kind != types.KindInt {
		t.Errorf("support-count column wrong: %v", schema.Columns())
	}
}

func TestAnalyzePerRowFunction(t *testing.T) {
	query.RegisterFunc("test_price", func(args []types.Value) (types.Value, error) {
		return types.Float(args[0].Float() - args[1].Float()), nil
	})
	cat := testCatalog(t)
	sp, err := Analyze(cat, "option_prices", optionPricesDef())
	if err != nil {
		t.Fatal(err)
	}
	if sp.Kind != PerRowFunction {
		t.Errorf("kind = %v", sp.Kind)
	}
	if sp.Base() != "stocks" || sp.Dim() != "options_list" {
		t.Errorf("base/dim = %s/%s", sp.Base(), sp.Dim())
	}
	if sp.dimJoinCol != "stock_symbol" || sp.baseJoinCol != "symbol" {
		t.Errorf("join cols = %s/%s", sp.dimJoinCol, sp.baseJoinCol)
	}
}

func TestAnalyzeRejections(t *testing.T) {
	cat := testCatalog(t)
	base := compPricesDef
	cases := []struct {
		name string
		mod  func(*query.Select)
		view string
	}{
		{"no name", func(q *query.Select) {}, ""},
		{"three tables", func(q *query.Select) { q.From = append(q.From, "options_list") }, "v"},
		{"one item", func(q *query.Select) { q.Items = q.Items[:1] }, "v"},
		{"unknown table", func(q *query.Select) { q.From[0] = "missing" }, "v"},
		{"no join", func(q *query.Select) { q.Where = nil }, "v"},
		{"non-eq join", func(q *query.Select) { q.Where[0].Op = query.LT }, "v"},
		{"group mismatch", func(q *query.Select) { q.GroupBy = []*query.ColRef{query.QCol("comps_list", "weight")} }, "v"},
		{"avg agg", func(q *query.Select) { q.Items[1].Agg = query.AggAvg }, "v"},
		{"no alias", func(q *query.Select) { q.Items[1].As = "" }, "v"},
		{"key not colref", func(q *query.Select) {
			q.Items[0] = query.Item(query.Arith(query.QCol("comps_list", "weight"), '+', query.Const(types.Int(1))), "k")
		}, "v"},
	}
	for _, tc := range cases {
		q := base()
		tc.mod(q)
		if _, err := Analyze(cat, tc.view, q); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	// Plain column value (no agg, no function).
	q := base()
	q.GroupBy = nil
	q.Items[1] = query.Item(query.QCol("comps_list", "weight"), "w")
	if _, err := Analyze(cat, "v", q); err == nil {
		t.Error("plain column value accepted")
	}
}

func TestAdviseAggregation(t *testing.T) {
	cat := testCatalog(t)
	sp, err := Analyze(cat, "comp_prices", compPricesDef())
	if err != nil {
		t.Fatal(err)
	}
	// Paper-scale stats: 33 upd/s × 12 fan-out over 400 groups = 1 touch/s
	// per composite; expect ≈2 s window, unique on comp.
	adv := sp.Advise(Stats{UpdateRate: 33, FanOut: 12, Groups: 400, MaxStaleness: clock.FromSeconds(3)})
	if !adv.Unique || len(adv.UniqueOn) != 1 || adv.UniqueOn[0] != "comp" {
		t.Errorf("advice = %+v", adv)
	}
	if adv.Delay < clock.FromSeconds(1.5) || adv.Delay > clock.FromSeconds(3) {
		t.Errorf("delay = %.2fs, want ≈2s", float64(adv.Delay)/1e6)
	}
	if !strings.Contains(adv.Reason, "view key") {
		t.Errorf("reason = %q", adv.Reason)
	}
	// Staleness clamp.
	adv = sp.Advise(Stats{UpdateRate: 1, FanOut: 1, Groups: 1000, MaxStaleness: clock.FromSeconds(1)})
	if adv.Delay != clock.FromSeconds(1) {
		t.Errorf("unclamped delay %d", adv.Delay)
	}
	// Floor.
	adv = sp.Advise(Stats{UpdateRate: 1e6, FanOut: 100, Groups: 10, MaxStaleness: clock.FromSeconds(3)})
	if adv.Delay != 100_000 {
		t.Errorf("floor delay = %d", adv.Delay)
	}
}

func TestAdvisePerRow(t *testing.T) {
	cat := testCatalog(t)
	sp, err := Analyze(cat, "option_prices", optionPricesDef())
	if err != nil {
		t.Fatal(err)
	}
	adv := sp.Advise(Stats{UpdateRate: 33, FanOut: 8, Groups: 6600, MaxStaleness: clock.FromSeconds(3)})
	if len(adv.UniqueOn) != 1 || adv.UniqueOn[0] != "stock_symbol" {
		t.Errorf("advice = %+v (should batch per base key)", adv)
	}
	if !strings.Contains(adv.Reason, "base key") {
		t.Errorf("reason = %q", adv.Reason)
	}
}

func TestMaintenanceRuleShape(t *testing.T) {
	cat := testCatalog(t)
	sp, err := Analyze(cat, "comp_prices", compPricesDef())
	if err != nil {
		t.Fatal(err)
	}
	adv := sp.Advise(Stats{UpdateRate: 33, FanOut: 12, Groups: 400, MaxStaleness: clock.FromSeconds(3)})

	reg := obs.NewRegistry()
	rule, fn, err := sp.MaintenanceRule("maintain_cp", adv, ModeDelta, reg)
	if err != nil {
		t.Fatal(err)
	}
	if fn == nil {
		t.Fatal("nil action")
	}
	if rule.Table != "stocks" || rule.Name != "maintain_comp_prices" {
		t.Errorf("rule = %+v", rule)
	}
	// Delta maintenance must see inserts, deletes, and updates of the value
	// columns plus the join key (re-keyed rows move group support).
	if len(rule.Events) != 3 {
		t.Fatalf("events = %+v", rule.Events)
	}
	kinds := map[string][]string{}
	for _, e := range rule.Events {
		kinds[e.Kind.String()] = e.Columns
	}
	if _, ok := kinds["inserted"]; !ok {
		t.Errorf("no inserted event: %+v", rule.Events)
	}
	if _, ok := kinds["deleted"]; !ok {
		t.Errorf("no deleted event: %+v", rule.Events)
	}
	upd := kinds["updated"]
	if len(upd) != 2 || upd[0] != "price" || upd[1] != "symbol" {
		t.Errorf("updated columns = %v, want [price symbol]", upd)
	}
	if len(rule.BindTransitions) != 4 {
		t.Errorf("bind transitions = %v", rule.BindTransitions)
	}
	if !rule.Unique || len(rule.UniqueOn) != 0 {
		t.Errorf("unique = %v %v (want view-wide batching)", rule.Unique, rule.UniqueOn)
	}
	if rule.Maintenance != "delta" {
		t.Errorf("maintenance = %q", rule.Maintenance)
	}

	full, ffn, err := sp.MaintenanceRule("maintain_cp", adv, ModeFull, reg)
	if err != nil {
		t.Fatal(err)
	}
	if ffn == nil {
		t.Fatal("nil full action")
	}
	if len(full.BindTransitions) != 0 || len(full.Condition) != 0 {
		t.Errorf("full rule binds data it never reads: %+v", full)
	}
	if full.Maintenance != "full" {
		t.Errorf("maintenance = %q", full.Maintenance)
	}

	if _, _, err := sp.MaintenanceRule("maintain_cp", adv, ModeAuto, reg); err == nil {
		t.Error("unresolved ModeAuto accepted")
	}
}

func TestDeltaRequirements(t *testing.T) {
	cat := testCatalog(t)
	agg, err := Analyze(cat, "comp_prices", compPricesDef())
	if err != nil {
		t.Fatal(err)
	}
	reqs := agg.DeltaRequirements()
	if len(reqs) != 1 || reqs[0] != (Requirement{Table: "comps_list", Col: "symbol"}) {
		t.Errorf("aggregation requirements = %v", reqs)
	}
	pr, err := Analyze(cat, "option_prices", optionPricesDef())
	if err != nil {
		t.Fatal(err)
	}
	reqs = pr.DeltaRequirements()
	if len(reqs) != 2 || reqs[0] != (Requirement{Table: "options_list", Col: "stock_symbol"}) ||
		reqs[1] != (Requirement{Table: "stocks", Col: "symbol"}) {
		t.Errorf("per-row requirements = %v", reqs)
	}
}

func TestLoadQueryShape(t *testing.T) {
	cat := testCatalog(t)
	sp, err := Analyze(cat, "comp_prices", compPricesDef())
	if err != nil {
		t.Fatal(err)
	}
	q := sp.LoadQuery()
	if len(q.Items) != 3 || q.Items[2].As != CountColumn || q.Items[2].Agg != query.AggCount {
		t.Errorf("aggregation load query items = %+v", q.Items)
	}
	if len(q.GroupBy) != 1 {
		t.Errorf("load query GroupBy = %v", q.GroupBy)
	}
	pr, err := Analyze(cat, "option_prices", optionPricesDef())
	if err != nil {
		t.Fatal(err)
	}
	q = pr.LoadQuery()
	if len(q.Items) != 2 || len(q.GroupBy) != 0 {
		t.Errorf("per-row load query = %+v", q)
	}
}
