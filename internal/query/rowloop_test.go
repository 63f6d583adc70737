package query

import (
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
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
// live engine's zero cost model.
func loopEnv(tb testing.TB, scale int) *txn.Manager {
	tb.Helper()
	return loopEnvSized(tb, scale*loopStocks, scale*loopCompSize)
}

// loopEnvSized loads the benchmark schema with the given number of stocks
// and of members per composite. Numeric columns are INT, as the
// benchmark's are; sector, lot, venue and tier exist to group by.
func loopEnvSized(tb testing.TB, stocks, compSize int) *txn.Manager {
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

// BenchmarkScanAggChurned is BenchmarkScanAgg over a table that has taken
// churnUpdates committed single-row updates first, as the repo benchmark's
// table has by the time it measures: every row is a copy-on-update
// replacement scattered through the heap, reached through the version GC's
// leftovers, instead of the fresh insert-ordered records the plain
// benchmark walks.
func BenchmarkScanAggChurned(b *testing.B) {
	const churnUpdates = 20_000
	mgr := loopEnv(b, 1)
	for i := 0; i < churnUpdates; i++ {
		tx := mgr.Begin()
		up := &UpdateStmt{
			Table: "stocks",
			Set:   []SetClause{{Col: "price", Expr: Const(types.Int(int64(100 + i%100)))}},
			Where: []Pred{Eq(Col("symbol"), Const(types.Str(fmt.Sprintf("S%04d", i*7919%loopStocks))))},
		}
		if n, err := up.Run(tx); err != nil || n != 1 {
			b.Fatalf("update %d: n=%d err=%v", i, n, err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	q := scanAgg()
	runLoop(b, mgr, q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runLoop(b, mgr, q)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(loopStocks), "ns/row")
}

// evictBuf is larger than the last-level cache of the machines this runs on.
var evictBuf = make([]byte, 32<<20)

// evictCache writes one byte per cache line of evictBuf, so that what a
// benchmark touched before is no longer cached. (Reads alone would not do:
// the untouched pages of a fresh allocation all map one zero page.)
func evictCache() {
	for i := 0; i < len(evictBuf); i += 64 {
		evictBuf[i]++
	}
}

// BenchmarkScanAggColdChurned is BenchmarkScanAggChurned from a cold cache
// over a table scattered the way a long write workload leaves it: 200k
// committed single-row updates, each followed by an allocation of the
// record's and its values' size classes into a ring of garbageRing slots,
// so that replacement records land in slots freed all over a heap many
// times the table's size rather than side by side. The ring is dropped
// before the scans, as a workload's short-lived objects die. The cache is
// evicted before every run, outside the timer, so ns/row is the walk's
// per-row misses: the row container's, the records' and their values'.
func BenchmarkScanAggColdChurned(b *testing.B) {
	const churnUpdates, garbageRing = 200_000, 1 << 16
	mgr := loopEnv(b, 1)
	recGarbage := make([]*storage.Record, garbageRing)
	valGarbage := make([][]types.Value, garbageRing)
	up := &UpdateStmt{
		Table: "stocks",
		Set:   []SetClause{{Col: "price", Expr: Param(0, types.KindInt)}},
		Where: []Pred{Eq(Col("symbol"), Param(1, types.KindString))},
	}
	for i := 0; i < churnUpdates; i++ {
		tx := mgr.Begin()
		sym := types.Str(fmt.Sprintf("S%04d", i*7919%loopStocks))
		if n, err := up.RunParams(tx, []types.Value{types.Int(int64(100 + i%100)), sym}); err != nil || n != 1 {
			b.Fatalf("update %d: n=%d err=%v", i, n, err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
		g := i * 2654435761 % garbageRing
		recGarbage[g] = new(storage.Record)
		valGarbage[g] = make([]types.Value, 6)
	}
	runtime.GC() // the ring is garbage from here on
	q := scanAgg()
	runLoop(b, mgr, q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		evictCache()
		b.StartTimer()
		runLoop(b, mgr, q)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(loopStocks), "ns/row")
}

func BenchmarkGroupBy1Col(b *testing.B) { benchLoop(b, groupBy("sector"), loopStocks) }
func BenchmarkGroupBy2Col(b *testing.B) { benchLoop(b, groupBy("sector", "lot"), loopStocks) }
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

// TestScanAllocs holds a snapshot scan-aggregate to a cost per run that does
// not grow with its table: the visible set is collected into a recycled
// buffer, so ten times the rows allocate no more bytes, and the run
// allocates fewer objects than treeEngineAllocs, the count when every run
// built an operator tree and a fresh record buffer.
func TestScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const (
		runs             = 50
		treeEngineAllocs = 15
		slack            = 64 // bytes per run: map and slab rounding in the transaction
	)
	// No GC while measuring (it would empty the buffer pool) and one P (a
	// pool keeps a buffer per P), as testing.AllocsPerRun pins it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perRun := func(stocks int) (bytes, objects float64) {
		mgr := loopEnvSized(t, stocks, loopCompSize)
		q := scanAgg()
		runLoop(t, mgr, q)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			runLoop(t, mgr, q)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / runs, float64(after.Mallocs-before.Mallocs) / runs
	}
	smallB, smallO := perRun(loopStocks / 10)
	largeB, largeO := perRun(loopStocks)
	t.Logf("%d rows: %.0f B, %.1f allocs per run; %d rows: %.0f B, %.1f allocs", loopStocks/10, smallB, smallO, loopStocks, largeB, largeO)
	if largeB > smallB+slack {
		t.Errorf("%.0f B per run at %d rows but %.0f B at %d: the scan allocates with the table", smallB, loopStocks/10, largeB, loopStocks)
	}
	if largeO >= treeEngineAllocs {
		t.Errorf("%.1f allocs per run, want fewer than %d", largeO, treeEngineAllocs)
	}
}

// TestConcurrentRunsShareNoRecordSet runs one plan from several goroutines
// at once: every run must see its own record sets, though all of them come
// from one pool, so each run's projected rows match a lone run's.
func TestConcurrentRunsShareNoRecordSet(t *testing.T) {
	mgr := loopEnvSized(t, 500, 5)
	q := &Select{
		From:  []string{"comps_list", "stocks"},
		Items: []SelectItem{Item(QCol("comps_list", "comp"), ""), Item(QCol("stocks", "symbol"), ""), Item(Col("price"), "")},
		Where: []Pred{Eq(QCol("stocks", "symbol"), QCol("comps_list", "symbol")), Cmp(Col("price"), GE, Const(types.Int(145)))},
	}
	run := func() ([][]types.Value, error) {
		tx := mgr.BeginReadOnly()
		defer tx.Commit() //nolint:errcheck // read-only
		out, err := q.Run(tx, TxnResolver{})
		if err != nil {
			return nil, err
		}
		defer out.Retire()
		rows := make([][]types.Value, out.Len())
		for i := range rows {
			rows[i] = out.Row(i)
		}
		return rows, nil
	}
	want, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("the query returns no rows: nothing to compare")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := run()
				if err == nil && !reflect.DeepEqual(got, want) {
					err = fmt.Errorf("a concurrent run returned %d rows unlike a lone run's %d", len(got), len(want))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
