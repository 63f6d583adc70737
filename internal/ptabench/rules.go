package ptabench

import (
	"fmt"

	strip "github.com/stripdb/strip"
	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/core"
	"github.com/stripdb/strip/internal/finance"
	"github.com/stripdb/strip/internal/query"
	"github.com/stripdb/strip/internal/types"
)

// Variant selects a rule configuration from §5's experiments.
type Variant int

// Composite-maintenance variants (paper §5.1) and option-maintenance
// variants (§5.2).
const (
	CompNonUnique    Variant = iota // do_comps1 (Figure 3)
	CompUnique                      // do_comps2: unique, coarse (Figure 6)
	CompUniqueSymbol                // unique on symbol
	CompUniqueComp                  // do_comps3: unique on comp (Figure 7)
	OptNonUnique                    // do_options1 (Figure 8)
	OptUnique                       // unique, coarse
	OptUniqueSymbol                 // unique on stock_symbol
	OptUniqueOption                 // unique on option_symbol (§5.2: omitted
	// from the paper's graphs as unmanageable, implemented here for the
	// same demonstration)
)

// String names the variant as the figures label it.
func (v Variant) String() string {
	switch v {
	case CompNonUnique:
		return "comps/non-unique"
	case CompUnique:
		return "comps/unique"
	case CompUniqueSymbol:
		return "comps/unique-on-symbol"
	case CompUniqueComp:
		return "comps/unique-on-comp"
	case OptNonUnique:
		return "options/non-unique"
	case OptUnique:
		return "options/unique"
	case OptUniqueSymbol:
		return "options/unique-on-symbol"
	case OptUniqueOption:
		return "options/unique-on-option"
	default:
		return "unknown"
	}
}

// IsComp reports whether the variant maintains comp_prices.
func (v Variant) IsComp() bool { return v <= CompUniqueComp }

// compMatchesQuery is the Figure 3/6/7 condition query:
//
//	select comp, comps_list.symbol as symbol, weight,
//	       old.price as old_price, new.price as new_price
//	from new, old, comps_list
//	where comps_list.symbol = new.symbol
//	  and new.execute_order = old.execute_order
//	bind as matches
func compMatchesQuery() *query.Select {
	return &query.Select{
		Items: []query.SelectItem{
			query.Item(query.QCol("comps_list", "comp"), ""),
			query.Item(query.QCol("comps_list", "symbol"), ""),
			query.Item(query.QCol("comps_list", "weight"), ""),
			query.Item(query.QCol("old", "price"), "old_price"),
			query.Item(query.QCol("new", "price"), "new_price"),
		},
		From: []string{"new", "old", "comps_list"},
		Where: []query.Pred{
			query.Eq(query.QCol("comps_list", "symbol"), query.QCol("new", "symbol")),
			query.Eq(query.QCol("new", "execute_order"), query.QCol("old", "execute_order")),
		},
		Bind: "matches",
	}
}

// optMatchesQuery is the Figure 8 condition query:
//
//	select option_symbol, stock_symbol, strike, expiration,
//	       new.price as new_price
//	from new, options_list
//	where options_list.stock_symbol = new.symbol
//	bind as matches
func optMatchesQuery() *query.Select {
	return &query.Select{
		Items: []query.SelectItem{
			query.Item(query.QCol("options_list", "option_symbol"), ""),
			query.Item(query.QCol("options_list", "stock_symbol"), ""),
			query.Item(query.QCol("options_list", "strike"), ""),
			query.Item(query.QCol("options_list", "expiration"), ""),
			query.Item(query.QCol("new", "price"), "new_price"),
		},
		From: []string{"new", "options_list"},
		Where: []query.Pred{
			query.Eq(query.QCol("options_list", "stock_symbol"), query.QCol("new", "symbol")),
		},
		Bind: "matches",
	}
}

// Install registers the variant's user function and creates its rule with
// the given delay window, returning the function name whose ActionStats
// carry the run's N_r and transaction lengths.
func Install(db *strip.DB, v Variant, delay clock.Micros) (string, error) {
	var fn strip.ActionFunc
	var cond *query.Select
	a := &actions{
		compDelta: query.UpdateStmt{
			Table: "comp_prices",
			Set:   []query.SetClause{{Col: "price", Expr: query.Param(0, types.KindFloat), AddTo: true}},
			Where: []query.Pred{query.Eq(query.Col("comp"), query.Param(1, types.KindString))},
		},
		optPrice: query.UpdateStmt{
			Table: "option_prices",
			Set:   []query.SetClause{{Col: "price", Expr: query.Param(0, types.KindFloat)}},
			Where: []query.Pred{query.Eq(query.Col("option_symbol"), query.Param(1, types.KindString))},
		},
	}
	name := fmt.Sprintf("fn_%d", int(v))
	rule := &core.Rule{
		Name:   fmt.Sprintf("rule_%d", int(v)),
		Table:  "stocks",
		Events: []core.EventSpec{{Kind: core.Updated, Columns: []string{"price"}}},
		Action: name,
	}
	switch v {
	case CompNonUnique:
		fn, cond = a.computeComps1, compMatchesQuery()
	case CompUnique:
		fn, cond = a.computeCompsGrouped, compMatchesQuery()
		rule.Unique = true
		rule.Delay = delay
	case CompUniqueSymbol:
		fn, cond = a.computeCompsGrouped, compMatchesQuery()
		rule.Unique = true
		rule.UniqueOn = []string{"symbol"}
		rule.Delay = delay
	case CompUniqueComp:
		fn, cond = a.computeComps3, compMatchesQuery()
		rule.Unique = true
		rule.UniqueOn = []string{"comp"}
		rule.Delay = delay
	case OptNonUnique:
		fn, cond = a.computeOptions1, optMatchesQuery()
	case OptUnique:
		fn, cond = a.computeOptionsGrouped, optMatchesQuery()
		rule.Unique = true
		rule.Delay = delay
	case OptUniqueSymbol:
		fn, cond = a.computeOptionsSymbol, optMatchesQuery()
		rule.Unique = true
		rule.UniqueOn = []string{"stock_symbol"}
		rule.Delay = delay
	case OptUniqueOption:
		fn, cond = a.computeOptionsPerOption, optMatchesQuery()
		rule.Unique = true
		rule.UniqueOn = []string{"option_symbol"}
		rule.Delay = delay
	default:
		return "", fmt.Errorf("ptabench: unknown variant %d", v)
	}
	rule.Condition = []*query.Select{cond}
	if err := db.RegisterFunc(name, fn); err != nil {
		return "", err
	}
	if err := db.CreateRule(rule); err != nil {
		return "", err
	}
	return name, nil
}

// matches column offsets (comp bound table).
const (
	mcComp = iota
	mcSymbol
	mcWeight
	mcOldPrice
	mcNewPrice
)

// actions are a variant's user functions and the UPDATE statements they
// run, held for the life of the rule as query.AggView holds its own: the
// first run plans each statement, and every later one reuses the plan with
// its row's values.
type actions struct {
	compDelta query.UpdateStmt // update comp_prices set price += ?0 where comp = ?1
	optPrice  query.UpdateStmt // update option_prices set price = ?0 where option_symbol = ?1
}

// applyCompDelta issues `update comp_prices set price += diff where comp=c`.
func (a *actions) applyCompDelta(ctx *strip.ActionContext, comp types.Value, diff float64) error {
	_, err := ctx.ExecUpdate(&a.compDelta, types.Float(diff), comp)
	return err
}

// computeComps1 is the paper's Figure 3 user function: one incremental
// UPDATE statement per matches row, no batching awareness.
func (a *actions) computeComps1(ctx *strip.ActionContext) error {
	m, ok := ctx.Bound("matches")
	if !ok {
		return fmt.Errorf("ptabench: no matches bound table")
	}
	model := ctx.Model()
	for i := 0; i < m.Len(); i++ {
		ctx.Charge(model.FetchCursor)
		diff := m.Value(i, mcWeight).Float() *
			(m.Value(i, mcNewPrice).Float() - m.Value(i, mcOldPrice).Float())
		if err := a.applyCompDelta(ctx, m.Value(i, mcComp), diff); err != nil {
			return err
		}
	}
	return nil
}

// computeCompsGrouped is the Figure 6 user function (compute_comps2): the
// matches table may span many composites, so the code groups the
// incremental changes per composite in application code before applying
// each once. Also used for unique-on-symbol, where a task's rows span the
// ~dozen composites of one stock.
func (a *actions) computeCompsGrouped(ctx *strip.ActionContext) error {
	m, ok := ctx.Bound("matches")
	if !ok {
		return fmt.Errorf("ptabench: no matches bound table")
	}
	model := ctx.Model()
	diffs := map[types.Value]float64{}
	var order []types.Value
	for i := 0; i < m.Len(); i++ {
		// Grouping in the recompute code provided by the user: STRIP v2.0
		// makes this slightly slower than rule-system grouping (§5.2).
		ctx.Charge(model.UserGroupRow)
		comp := m.Value(i, mcComp)
		if _, seen := diffs[comp]; !seen {
			order = append(order, comp)
		}
		diffs[comp] += m.Value(i, mcWeight).Float() *
			(m.Value(i, mcNewPrice).Float() - m.Value(i, mcOldPrice).Float())
	}
	for _, comp := range order {
		if err := a.applyCompDelta(ctx, comp, diffs[comp]); err != nil {
			return err
		}
	}
	return nil
}

// computeComps3 is the Figure 7 user function: with `unique on comp` the
// rule system has already partitioned matches per composite, so the loop
// just accumulates the weighted changes and applies the total once.
func (a *actions) computeComps3(ctx *strip.ActionContext) error {
	m, ok := ctx.Bound("matches")
	if !ok {
		return fmt.Errorf("ptabench: no matches bound table")
	}
	if m.Len() == 0 {
		return nil
	}
	model := ctx.Model()
	total := 0.0
	for i := 0; i < m.Len(); i++ {
		ctx.Charge(model.FetchCursor)
		total += m.Value(i, mcWeight).Float() *
			(m.Value(i, mcNewPrice).Float() - m.Value(i, mcOldPrice).Float())
	}
	return a.applyCompDelta(ctx, m.Value(0, mcComp), total)
}

// options matches column offsets.
const (
	moOption = iota
	moStock
	moStrike
	moExpiration
	moNewPrice
)

// fetchStdev runs `select stdev from stock_stdev where symbol = s`.
func fetchStdev(ctx *strip.ActionContext, symbol types.Value) (float64, error) {
	res, err := ctx.Query(&query.Select{
		Items: []query.SelectItem{query.Item(query.Col("stdev"), "")},
		From:  []string{"stock_stdev"},
		Where: []query.Pred{query.Eq(query.Col("symbol"), query.Const(symbol))},
	})
	if err != nil {
		return 0, err
	}
	defer res.Retire()
	if res.Len() == 0 {
		return 0, fmt.Errorf("ptabench: no stdev for %v", symbol)
	}
	return res.Value(0, 0).Float(), nil
}

// priceOption evaluates Black-Scholes (real computation plus its virtual
// CPU charge) and writes option_prices.
func (a *actions) priceOption(ctx *strip.ActionContext, option types.Value, s, k, t, sigma float64) error {
	ctx.Charge(ctx.Model().BlackScholes)
	price, err := finance.BlackScholesCall(s, k, finance.RisklessRate, t, sigma)
	if err != nil {
		return err
	}
	_, err = ctx.ExecUpdate(&a.optPrice, types.Float(price), option)
	return err
}

// computeOptions1 is the paper's Figure 8 user function: for every matches
// row, recompute the option's theoretical price from the new underlying
// price. Option prices are not incrementally maintainable, so every change
// triggers a full Black-Scholes evaluation. The stdev lookup is cached per
// distinct stock within the task (a non-unique task's rows all belong to
// one update transaction, usually one stock), so the unique variants'
// advantage comes from batching itself, as in the paper.
func (a *actions) computeOptions1(ctx *strip.ActionContext) error {
	m, ok := ctx.Bound("matches")
	if !ok {
		return fmt.Errorf("ptabench: no matches bound table")
	}
	model := ctx.Model()
	stdevs := map[types.Value]float64{}
	for i := 0; i < m.Len(); i++ {
		ctx.Charge(model.FetchCursor)
		stock := m.Value(i, moStock)
		sigma, seen := stdevs[stock]
		if !seen {
			var err error
			sigma, err = fetchStdev(ctx, stock)
			if err != nil {
				return err
			}
			stdevs[stock] = sigma
		}
		if err := a.priceOption(ctx, m.Value(i, moOption),
			m.Value(i, moNewPrice).Float(), m.Value(i, moStrike).Float(),
			m.Value(i, moExpiration).Float(), sigma); err != nil {
			return err
		}
	}
	return nil
}

// optGroup is the last-image state for one option within a batch.
type optGroup struct {
	stock  types.Value
	strike float64
	exp    float64
	price  float64
}

// groupOptions reduces matches rows to the latest image per option
// (user-code grouping; bound rows arrive in commit order, so the last row
// for an option carries the newest underlying price — the batching benefit
// for non-incremental data, §5.2).
func groupOptions(ctx *strip.ActionContext, m *strip.TempTable) ([]types.Value, map[types.Value]*optGroup) {
	model := ctx.Model()
	groups := map[types.Value]*optGroup{}
	var order []types.Value
	for i := 0; i < m.Len(); i++ {
		ctx.Charge(model.UserGroupRow)
		opt := m.Value(i, moOption)
		g, seen := groups[opt]
		if !seen {
			g = &optGroup{}
			groups[opt] = g
			order = append(order, opt)
		}
		g.stock = m.Value(i, moStock)
		g.strike = m.Value(i, moStrike).Float()
		g.exp = m.Value(i, moExpiration).Float()
		g.price = m.Value(i, moNewPrice).Float()
	}
	return order, groups
}

// computeOptionsGrouped handles the coarse unique variant: rows span many
// stocks; group per option, fetch each stock's stdev once, and price each
// option once from its last underlying price.
func (a *actions) computeOptionsGrouped(ctx *strip.ActionContext) error {
	m, ok := ctx.Bound("matches")
	if !ok {
		return fmt.Errorf("ptabench: no matches bound table")
	}
	order, groups := groupOptions(ctx, m)
	stdevs := map[types.Value]float64{}
	for _, opt := range order {
		g := groups[opt]
		sigma, seen := stdevs[g.stock]
		if !seen {
			var err error
			sigma, err = fetchStdev(ctx, g.stock)
			if err != nil {
				return err
			}
			stdevs[g.stock] = sigma
		}
		if err := a.priceOption(ctx, opt, g.price, g.strike, g.exp, sigma); err != nil {
			return err
		}
	}
	return nil
}

// computeOptionsSymbol handles `unique on stock_symbol`: every row shares
// one stock, so the stdev is fetched once — the "partial results used for
// every option computed only once" benefit (§3).
func (a *actions) computeOptionsSymbol(ctx *strip.ActionContext) error {
	m, ok := ctx.Bound("matches")
	if !ok {
		return fmt.Errorf("ptabench: no matches bound table")
	}
	if m.Len() == 0 {
		return nil
	}
	order, groups := groupOptions(ctx, m)
	sigma, err := fetchStdev(ctx, m.Value(0, moStock))
	if err != nil {
		return err
	}
	for _, opt := range order {
		g := groups[opt]
		if err := a.priceOption(ctx, opt, g.price, g.strike, g.exp, sigma); err != nil {
			return err
		}
	}
	return nil
}

// computeOptionsPerOption handles `unique on option_symbol`: one option per
// task; take the last image and price it.
func (a *actions) computeOptionsPerOption(ctx *strip.ActionContext) error {
	m, ok := ctx.Bound("matches")
	if !ok {
		return fmt.Errorf("ptabench: no matches bound table")
	}
	if m.Len() == 0 {
		return nil
	}
	model := ctx.Model()
	last := m.Len() - 1
	ctx.Charge(model.FetchCursor * float64(m.Len()))
	sigma, err := fetchStdev(ctx, m.Value(last, moStock))
	if err != nil {
		return err
	}
	return a.priceOption(ctx, m.Value(last, moOption),
		m.Value(last, moNewPrice).Float(), m.Value(last, moStrike).Float(),
		m.Value(last, moExpiration).Float(), sigma)
}
