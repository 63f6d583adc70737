package query

import (
	"fmt"
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

// Per-layer benchmarks of the query row loop on the repo benchmark's
// schema sizes (bench/gen.go): stocks rows, comps composites of
// compSize members each in comps_list. Each reports ns per row through
// the loop next to allocs/op, so a per-row allocation shows as allocs/op
// growing with the table.
const (
	loopStocks   = 5000
	loopComps    = 200
	loopCompSize = 50
)

// loopEnv loads the benchmark schema scaled by scale (1 = the benchmark's
// sizes: rows per table and members per composite both multiply) under the
// live engine's zero cost model. Numeric columns are INT, as the
// benchmark's are; sector, lot, venue and tier exist to group by.
func loopEnv(tb testing.TB, scale int) *txn.Manager {
	stocks, compSize := scale*loopStocks, scale*loopCompSize
	tb.Helper()
	cat := catalog.New()
	store := storage.NewStore()
	mk := func(s *catalog.Schema, indexed ...string) *storage.Table {
		if err := cat.Define(s); err != nil {
			tb.Fatal(err)
		}
		tbl, err := store.Create(s)
		if err != nil {
			tb.Fatal(err)
		}
		for _, col := range indexed {
			if err := tbl.CreateIndex(col, index.Hash); err != nil {
				tb.Fatal(err)
			}
		}
		return tbl
	}
	st := mk(catalog.MustSchema("stocks",
		catalog.Column{Name: "symbol", Kind: types.KindString},
		catalog.Column{Name: "price", Kind: types.KindInt},
		catalog.Column{Name: "sector", Kind: types.KindString},
		catalog.Column{Name: "lot", Kind: types.KindInt},
		catalog.Column{Name: "venue", Kind: types.KindString},
		catalog.Column{Name: "tier", Kind: types.KindInt}), "symbol")
	for i := 0; i < stocks; i++ {
		// Prices 100..199 in a fixed scramble: `price >= 145` keeps 55 %.
		if _, err := st.Insert([]types.Value{
			types.Str(fmt.Sprintf("S%04d", i)), types.Int(int64(100 + i*37%100)),
			types.Str(fmt.Sprintf("sec%02d", i%20)), types.Int(int64(i % 7)),
			types.Str(fmt.Sprintf("v%d", i%3)), types.Int(int64(i % 2)),
		}); err != nil {
			tb.Fatal(err)
		}
	}
	cl := mk(catalog.MustSchema("comps_list",
		catalog.Column{Name: "comp", Kind: types.KindString},
		catalog.Column{Name: "symbol", Kind: types.KindString},
		catalog.Column{Name: "weight", Kind: types.KindInt}), "symbol", "comp")
	for c := 0; c < loopComps; c++ {
		for m := 0; m < compSize; m++ {
			if _, err := cl.Insert([]types.Value{
				types.Str(fmt.Sprintf("C%03d", c)),
				types.Str(fmt.Sprintf("S%04d", (c*compSize+m*101)%stocks)),
				types.Int(int64(1 + m%9)),
			}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return txn.NewManager(cat, store, lock.New(), clock.NewVirtual(), cost.NewMeter(), cost.Zero())
}

// The three read_mix statement shapes the repo benchmark sends (bench/gen.go).
func scanAgg() *Select {
	return &Select{From: []string{"stocks"}, Items: []SelectItem{AggItem(AggSum, Col("price"), "s")}}
}

func scanFilterProject() *Select {
	return &Select{
		From:  []string{"stocks"},
		Items: []SelectItem{Item(Col("symbol"), ""), Item(Col("price"), "")},
		Where: []Pred{Cmp(Col("price"), GE, Const(types.Int(145)))},
	}
}

func probeJoinAgg() *Select {
	return &Select{
		From:  []string{"comps_list", "stocks"},
		Items: []SelectItem{AggItem(AggSum, Arith(Col("weight"), '*', Col("price")), "v")},
		Where: []Pred{
			Eq(QCol("comps_list", "comp"), Const(types.Str("C007"))),
			Eq(QCol("stocks", "symbol"), QCol("comps_list", "symbol")),
		},
	}
}

func groupBy(cols ...string) *Select {
	q := &Select{From: []string{"stocks"}}
	for _, c := range cols {
		q.Items = append(q.Items, Item(Col(c), ""))
		q.GroupBy = append(q.GroupBy, Col(c))
	}
	q.Items = append(q.Items, AggItem(AggSum, Col("price"), "s"), AggItem(AggCount, Col("price"), "n"))
	return q
}

// runLoop runs q once in a snapshot transaction, as a served read does,
// and returns the result's row count.
func runLoop(tb testing.TB, mgr *txn.Manager, q *Select) int {
	tx := mgr.BeginReadOnly()
	out, err := q.Run(tx, TxnResolver{})
	if err != nil {
		tb.Fatal(err)
	}
	n := out.Len()
	out.Retire()
	if err := tx.Commit(); err != nil {
		tb.Fatal(err)
	}
	return n
}

// benchLoop reports ns/row over rowsPerOp rows through the loop per run.
func benchLoop(b *testing.B, q *Select, rowsPerOp int) {
	mgr := loopEnv(b, 1)
	runLoop(b, mgr, q) // compile once: the plan cache holds across runs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runLoop(b, mgr, q)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rowsPerOp), "ns/row")
}

func BenchmarkScanAgg(b *testing.B)           { benchLoop(b, scanAgg(), loopStocks) }
func BenchmarkScanFilterProject(b *testing.B) { benchLoop(b, scanFilterProject(), loopStocks) }
func BenchmarkProbeJoinAgg(b *testing.B)      { benchLoop(b, probeJoinAgg(), 2*loopCompSize) }
func BenchmarkGroupBy1Col(b *testing.B)       { benchLoop(b, groupBy("sector"), loopStocks) }
func BenchmarkGroupBy2Col(b *testing.B)       { benchLoop(b, groupBy("sector", "lot"), loopStocks) }
func BenchmarkGroupBy4Col(b *testing.B) {
	benchLoop(b, groupBy("sector", "lot", "venue", "tier"), loopStocks)
}

// TestRowLoopAllocs holds the three read_mix statement shapes to a
// constant number of allocations per run: at four times the scale — four
// times the rows scanned, probed for and emitted — the count may exceed
// the benchmark scale's only by the output slabs' extra doublings.
func TestRowLoopAllocs(t *testing.T) {
	const slabGrowth = 6 // two slabs, two more doublings each, and slack
	small, large := loopEnv(t, 1), loopEnv(t, 4)
	for _, tc := range []struct {
		name string
		q    func() *Select
	}{
		{"scan_agg", scanAgg},
		{"scan_filter_project", scanFilterProject},
		{"probe_join_agg", probeJoinAgg},
	} {
		allocs := func(mgr *txn.Manager) float64 {
			q := tc.q()
			runLoop(t, mgr, q)
			return testing.AllocsPerRun(20, func() { runLoop(t, mgr, q) })
		}
		s, l := allocs(small), allocs(large)
		t.Logf("%s: %.0f allocs at scale 1, %.0f at scale 4", tc.name, s, l)
		if l > s+slabGrowth {
			t.Errorf("%s: %.0f allocs at scale 1 but %.0f at scale 4: the row loop allocates per row", tc.name, s, l)
		}
		if s > 60 {
			t.Errorf("%s: %.0f allocs per run, want a small constant", tc.name, s)
		}
	}
}
