package plan

import (
	"math/rand"
	"reflect"
	"testing"
)

var testCosts = Costs{IndexProbe: 25, ScanRow: 5, JoinRow: 20}

// Three-table trading shape: a tiny sectors table, a mid-size stocks
// table indexed on symbol, and a large trades table indexed on symbol
// and trade_id.
func tradingTables() []Table {
	return []Table{
		{Name: "sectors", Rows: 20},
		{Name: "stocks", Rows: 2000, IndexKeys: map[string]int{"symbol": 2000}},
		{Name: "trades", Rows: 20000, IndexKeys: map[string]int{"symbol": 2000, "trade_id": 20000}},
	}
}

// sectors.name = stocks.sector AND stocks.symbol = trades.symbol AND
// trades.trade_id = <const>
func tradingPreds() []Pred {
	return []Pred{
		{Srcs: []int{0, 1}, Class: Eq, Probes: []Probe{
			{Src: 0, Col: "name", OtherSrcs: []int{1}},
			{Src: 1, Col: "sector", OtherSrcs: []int{0}},
		}},
		{Srcs: []int{1, 2}, Class: Eq, Probes: []Probe{
			{Src: 1, Col: "symbol", OtherSrcs: []int{2}},
			{Src: 2, Col: "symbol", OtherSrcs: []int{1}},
		}},
		{Srcs: []int{2}, Class: Eq, Probes: []Probe{
			{Src: 2, Col: "trade_id", OtherSrcs: nil},
		}},
	}
}

func TestCostOrderExploitsConstProbe(t *testing.T) {
	res := Choose(tradingTables(), tradingPreds(), testCosts)
	// The constant trade_id probe makes trades the cheapest start
	// (1 probe vs a 20-row scan of sectors); stocks then probes on
	// symbol; sectors last.
	if got := res.Order(); !reflect.DeepEqual(got, []int{2, 1, 0}) {
		t.Fatalf("cost order = %v, want [2 1 0]", got)
	}
	if res.Levels[0].ProbePred != 2 {
		t.Fatalf("level 0 should probe trades.trade_id, got %+v", res.Levels[0])
	}
	if res.Levels[1].ProbePred != 1 || res.Levels[1].ProbeCand != 0 {
		t.Fatalf("level 1 should probe stocks.symbol, got %+v", res.Levels[1])
	}
	if !Covered(res, 3) {
		t.Fatalf("predicates not covered exactly once: %+v", res)
	}
}

func TestCostOrderPrefersSmallOuterWithoutIndexes(t *testing.T) {
	tables := []Table{
		{Name: "big", Rows: 10000},
		{Name: "small", Rows: 10},
	}
	preds := []Pred{{Srcs: []int{0, 1}, Class: Eq}}
	res := Choose(tables, preds, testCosts)
	if got := res.Order(); !reflect.DeepEqual(got, []int{1, 0}) {
		t.Fatalf("order = %v, want small table first", got)
	}
	if !Covered(res, 1) {
		t.Fatalf("predicate lost: %+v", res)
	}
}

func TestConstPredicatesReported(t *testing.T) {
	tables := []Table{{Name: "t", Rows: 5}}
	preds := []Pred{
		{Srcs: nil, Class: Eq},
		{Srcs: []int{0}, Class: Range},
	}
	res := Choose(tables, preds, testCosts)
	if !reflect.DeepEqual(res.Consts, []int{0}) {
		t.Fatalf("consts = %v, want [0]", res.Consts)
	}
	if !Covered(res, 2) {
		t.Fatalf("coverage broken: %+v", res)
	}
}

func TestEstimatesMonotoneAndPositive(t *testing.T) {
	res := Choose(tradingTables(), tradingPreds(), testCosts)
	for i, lv := range res.Levels {
		if lv.EstCost <= 0 || lv.EstAccess < 0 || lv.EstOut < 0 {
			t.Fatalf("level %d has degenerate estimates: %+v", i, lv)
		}
		if lv.EstOut > lv.EstAccess {
			t.Fatalf("level %d residuals grew the estimate: %+v", i, lv)
		}
	}
	if res.EstRows != res.Levels[len(res.Levels)-1].EstOut {
		t.Fatalf("EstRows %v != last level EstOut", res.EstRows)
	}
}

// Randomized structural check: whatever the shape, the planner places
// every source exactly once and every predicate exactly once.
func TestRandomizedCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 500; iter++ {
		n := 1 + rng.Intn(4)
		tables := make([]Table, n)
		for i := range tables {
			tables[i] = Table{Name: "t", Rows: rng.Intn(5000)}
			if rng.Intn(2) == 0 {
				tables[i].IndexKeys = map[string]int{"k": 1 + rng.Intn(1000)}
			}
		}
		var preds []Pred
		for pi := 0; pi < rng.Intn(5); pi++ {
			p := Pred{Class: Class(rng.Intn(3))}
			for s := 0; s < n; s++ {
				if rng.Intn(2) == 0 {
					p.Srcs = append(p.Srcs, s)
				}
			}
			if p.Class == Eq && len(p.Srcs) > 0 && rng.Intn(2) == 0 {
				tgt := p.Srcs[rng.Intn(len(p.Srcs))]
				var others []int
				for _, s := range p.Srcs {
					if s != tgt {
						others = append(others, s)
					}
				}
				p.Probes = []Probe{{Src: tgt, Col: "k", OtherSrcs: others}}
			}
			preds = append(preds, p)
		}
		res := Choose(tables, preds, testCosts)
		if len(res.Levels) != n {
			t.Fatalf("iter %d: %d levels for %d tables", iter, len(res.Levels), n)
		}
		seen := make([]bool, n)
		for _, lv := range res.Levels {
			if seen[lv.Src] {
				t.Fatalf("iter %d: source %d placed twice", iter, lv.Src)
			}
			seen[lv.Src] = true
		}
		if !Covered(res, len(preds)) {
			t.Fatalf("iter %d: predicate coverage broken: %+v", iter, res)
		}
	}
}

// The delta-maintenance trap: a large unindexed transition leaf joined to
// a small indexed dimension. Immediate-cost greedy would start from the
// cheaper dimension scan and then have nothing to probe into the leaf,
// costing |dim|·|leaf|; the one-level lookahead sees that starting from
// the leaf buys |leaf| index probes into the dimension instead.
func TestCostOrderLookaheadScansDeltaLeafFirst(t *testing.T) {
	tables := []Table{
		{Name: "dim", Rows: 50, IndexKeys: map[string]int{"jc": 50}},
		{Name: "leaf", Rows: 5000}, // transition temp table: no indexes
	}
	preds := []Pred{
		{Srcs: []int{0, 1}, Class: Eq, Probes: []Probe{
			{Src: 0, Col: "jc", OtherSrcs: []int{1}},
		}},
	}
	res := Choose(tables, preds, testCosts)
	if got := res.Order(); !reflect.DeepEqual(got, []int{1, 0}) {
		t.Fatalf("order = %v, want leaf first", got)
	}
	if res.Levels[1].ProbePred != 0 {
		t.Fatalf("level 1 should probe dim.jc, got %+v", res.Levels[1])
	}
}
