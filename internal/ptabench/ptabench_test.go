package ptabench

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	strip "github.com/stripdb/strip"
	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/feed"
	"github.com/stripdb/strip/internal/finance"
	"github.com/stripdb/strip/internal/storage"
)

// tinyConfig is a fast but non-trivial workload for unit tests.
func tinyConfig() WorkloadConfig { return TinyScale() }

func mustTrace(t testing.TB, cfg WorkloadConfig) *feed.Trace {
	t.Helper()
	tr, err := feed.Generate(cfg.Feed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSetupPopulations(t *testing.T) {
	cfg := tinyConfig()
	tr := mustTrace(t, cfg)
	db := strip.MustOpen(strip.Config{Virtual: true})
	w, err := Setup(db, tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := db.Txns().Store
	sizes := map[string]int{
		"stocks":        cfg.Feed.NumStocks,
		"stock_stdev":   cfg.Feed.NumStocks,
		"comp_prices":   cfg.NumComposites,
		"comps_list":    cfg.NumComposites * cfg.CompSize,
		"options_list":  cfg.NumOptions,
		"option_prices": cfg.NumOptions,
	}
	for table, want := range sizes {
		tbl, ok := store.Get(table)
		if !ok {
			t.Fatalf("table %s missing", table)
		}
		if tbl.Len() != want {
			t.Errorf("%s has %d rows, want %d", table, tbl.Len(), want)
		}
	}
	if w.Memberships != cfg.NumComposites*cfg.CompSize {
		t.Errorf("memberships = %d", w.Memberships)
	}
	// Initial comp_prices match the view definition.
	diff := maxCompViewError(t, db)
	if diff > 1e-9 {
		t.Errorf("initial comp_prices off by %g", diff)
	}
}

// maxCompViewError recomputes every composite from scratch and returns the
// largest deviation from the materialized comp_prices.
func maxCompViewError(t testing.TB, db *strip.DB) float64 {
	t.Helper()
	store := db.Txns().Store
	stocks, _ := store.Get("stocks")
	prices := map[string]float64{}
	stocks.Scan(func(r *storage.Record) bool {
		prices[r.Value(0).Str()] = r.Value(1).Float()
		return true
	})
	want := map[string]float64{}
	cl, _ := store.Get("comps_list")
	cl.Scan(func(r *storage.Record) bool {
		want[r.Value(0).Str()] += r.Value(2).Float() * prices[r.Value(1).Str()]
		return true
	})
	maxDiff := 0.0
	cp, _ := store.Get("comp_prices")
	cp.Scan(func(r *storage.Record) bool {
		d := math.Abs(r.Value(1).Float() - want[r.Value(0).Str()])
		if d > maxDiff {
			maxDiff = d
		}
		return true
	})
	return maxDiff
}

// The defining correctness property: after replaying the trace and
// draining all recompute tasks, the materialized comp_prices equals the
// view recomputed from scratch — for every rule variant.
func TestReplayMaintainsCompView(t *testing.T) {
	cfg := tinyConfig()
	tr := mustTrace(t, cfg)
	for _, v := range CompVariants() {
		t.Run(v.String(), func(t *testing.T) {
			db := strip.MustOpen(strip.Config{Virtual: true})
			if _, err := Setup(db, tr, cfg); err != nil {
				t.Fatal(err)
			}
			fname, err := Install(db, v, clock.FromSeconds(1))
			if err != nil {
				t.Fatal(err)
			}
			if err := Replay(db, tr); err != nil {
				t.Fatal(err)
			}
			if errs := db.Stats(fname).TaskErrors; errs != 0 {
				t.Fatalf("%d task errors", errs)
			}
			if diff := maxCompViewError(t, db); diff > 1e-6 {
				t.Errorf("comp_prices off by %g after replay", diff)
			}
		})
	}
}

// Same property for option_prices: every option whose underlying changed
// must carry the Black-Scholes price of the final stock price.
func TestReplayMaintainsOptionView(t *testing.T) {
	cfg := tinyConfig()
	tr := mustTrace(t, cfg)
	for _, v := range OptionVariants(true) {
		t.Run(v.String(), func(t *testing.T) {
			db := strip.MustOpen(strip.Config{Virtual: true})
			if _, err := Setup(db, tr, cfg); err != nil {
				t.Fatal(err)
			}
			fname, err := Install(db, v, clock.FromSeconds(1))
			if err != nil {
				t.Fatal(err)
			}
			if err := Replay(db, tr); err != nil {
				t.Fatal(err)
			}
			if errs := db.Stats(fname).TaskErrors; errs != 0 {
				t.Fatalf("%d task errors", errs)
			}
			store := db.Txns().Store
			stocks, _ := store.Get("stocks")
			prices := map[string]float64{}
			stocks.Scan(func(r *storage.Record) bool {
				prices[r.Value(0).Str()] = r.Value(1).Float()
				return true
			})
			stdevTbl, _ := store.Get("stock_stdev")
			stdevs := map[string]float64{}
			stdevTbl.Scan(func(r *storage.Record) bool {
				stdevs[r.Value(0).Str()] = r.Value(1).Float()
				return true
			})
			changed := map[int]bool{}
			for _, q := range tr.Quotes {
				changed[q.Stock] = true
			}
			ol, _ := store.Get("options_list")
			type optInfo struct {
				stock  string
				strike float64
				exp    float64
			}
			opts := map[string]optInfo{}
			ol.Scan(func(r *storage.Record) bool {
				opts[r.Value(0).Str()] = optInfo{
					stock: r.Value(1).Str(), strike: r.Value(2).Float(), exp: r.Value(3).Float()}
				return true
			})
			op, _ := store.Get("option_prices")
			checked := 0
			op.Scan(func(r *storage.Record) bool {
				info := opts[r.Value(0).Str()]
				var id int
				if _, err := fmtSscanf(info.stock, &id); err != nil {
					t.Fatalf("bad symbol %q", info.stock)
				}
				if !changed[id] {
					return true
				}
				want, err := finance.BlackScholesCall(prices[info.stock], info.strike,
					finance.RisklessRate, info.exp, stdevs[info.stock])
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(want-r.Value(1).Float()) > 1e-9 {
					t.Errorf("option %s price %g, want %g", r.Value(0).Str(), r.Value(1).Float(), want)
					return false
				}
				checked++
				return true
			})
			if checked == 0 {
				t.Fatal("no options checked")
			}
		})
	}
}

// fmtSscanf parses the numeric part of a feed symbol.
func fmtSscanf(symbol string, id *int) (int, error) {
	n := 0
	for _, c := range symbol {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
		}
	}
	*id = n
	return 1, nil
}

// Qualitative reproduction of the paper's §5 findings at tiny scale.
func TestQualitativeShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	cfg := tinyConfig()
	er, err := RunExperiment(cfg, CompVariants(), []float64{0.5, 3.0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	non, _ := er.Find(CompNonUnique, 0)
	coarse3, _ := er.Find(CompUnique, 3.0)
	comp05, _ := er.Find(CompUniqueComp, 0.5)
	comp3, _ := er.Find(CompUniqueComp, 3.0)
	sym3, _ := er.Find(CompUniqueSymbol, 3.0)

	// Batching reduces CPU load (Figure 9).
	if coarse3.CPUUtil >= non.CPUUtil {
		t.Errorf("coarse unique (%.3f) not below non-unique (%.3f)", coarse3.CPUUtil, non.CPUUtil)
	}
	if comp3.CPUUtil >= non.CPUUtil {
		t.Errorf("unique-on-comp at 3s (%.3f) not below non-unique (%.3f)", comp3.CPUUtil, non.CPUUtil)
	}
	// Longer delays batch more (monotonicity).
	if comp3.CPUUtil >= comp05.CPUUtil {
		t.Errorf("unique-on-comp CPU did not fall with delay: %.3f -> %.3f", comp05.CPUUtil, comp3.CPUUtil)
	}
	// Figure 10: coarse runs far fewer recomputations; per-comp far more.
	if coarse3.Nr*10 > non.Nr {
		t.Errorf("coarse N_r = %d vs non-unique %d", coarse3.Nr, non.Nr)
	}
	if comp05.Nr <= non.Nr {
		t.Errorf("unique-on-comp N_r (%d) not above non-unique (%d)", comp05.Nr, non.Nr)
	}
	// Figure 11: coarse transactions are much longer; per-comp much shorter.
	if coarse3.MeanRecomputeMicros < 4*sym3.MeanRecomputeMicros {
		t.Errorf("coarse txn length %.0f not >> symbol %.0f", coarse3.MeanRecomputeMicros, sym3.MeanRecomputeMicros)
	}
	if comp3.MeanRecomputeMicros >= sym3.MeanRecomputeMicros {
		t.Errorf("per-comp txn length %.0f not below symbol %.0f", comp3.MeanRecomputeMicros, sym3.MeanRecomputeMicros)
	}
	// Batching counters: merges grow with the window.
	if comp3.TasksMerged <= comp05.TasksMerged {
		t.Errorf("merges did not grow with delay: %d -> %d", comp05.TasksMerged, comp3.TasksMerged)
	}
}

func TestOptionShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	cfg := tinyConfig()
	er, err := RunExperiment(cfg, OptionVariants(false), []float64{3.0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	non, _ := er.Find(OptNonUnique, 0)
	sym, _ := er.Find(OptUniqueSymbol, 3.0)
	coarse, _ := er.Find(OptUnique, 3.0)
	// Figure 12: batching on symbol beats non-unique at 3 s.
	if sym.CPUUtil >= non.CPUUtil {
		t.Errorf("unique-on-symbol (%.3f) not below non-unique (%.3f)", sym.CPUUtil, non.CPUUtil)
	}
	// Figure 14: symbol transactions much shorter than coarse.
	if coarse.MeanRecomputeMicros < 4*sym.MeanRecomputeMicros {
		t.Errorf("coarse txn %.0f not >> symbol %.0f", coarse.MeanRecomputeMicros, sym.MeanRecomputeMicros)
	}
	// Figure 13: symbol runs many more recomputations than coarse.
	if sym.Nr < coarse.Nr*4 {
		t.Errorf("symbol N_r %d not >> coarse %d", sym.Nr, coarse.Nr)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := tinyConfig()
	tr := mustTrace(t, cfg)
	a, err := Run(cfg, tr, CompUniqueComp, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, tr, CompUniqueComp, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if a.CPUUtil != b.CPUUtil || a.Nr != b.Nr || a.TasksMerged != b.TasksMerged ||
		a.MeanRecomputeMicros != b.MeanRecomputeMicros {
		t.Errorf("runs differ: %+v vs %+v", a, b)
	}
}

// TestStalenessGrowsWithDelay: a longer `after` window holds updates in the
// queue longer, so the maximum derived-data staleness observed at recompute
// commits must grow with the delay — and be at least the window itself.
func TestStalenessGrowsWithDelay(t *testing.T) {
	cfg := tinyConfig()
	tr := mustTrace(t, cfg)
	short, err := Run(cfg, tr, CompUniqueComp, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	long, err := Run(cfg, tr, CompUniqueComp, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if short.MaxStalenessMicros < clock.FromSeconds(0.5) {
		t.Errorf("0.5s delay: max staleness %d below the window", short.MaxStalenessMicros)
	}
	if long.MaxStalenessMicros <= short.MaxStalenessMicros {
		t.Errorf("max staleness did not grow with delay: %d (0.5s) vs %d (2.5s)",
			short.MaxStalenessMicros, long.MaxStalenessMicros)
	}
	if long.P95StalenessMicros <= short.P95StalenessMicros {
		t.Errorf("p95 staleness did not grow with delay: %d vs %d",
			short.P95StalenessMicros, long.P95StalenessMicros)
	}
	// Action latency percentiles ride along in the run result.
	if short.P95ActionMicros <= 0 || long.P99ActionMicros < long.P95ActionMicros {
		t.Errorf("action latency percentiles inconsistent: %+v vs %+v", short, long)
	}
}

func TestWriteFigure(t *testing.T) {
	cfg := tinyConfig()
	er, err := RunExperiment(cfg, []Variant{CompNonUnique, CompUniqueComp}, []float64{1.0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := er.WriteFigure(&buf, "fig9"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 9") || !strings.Contains(out, "unique-on-comp") {
		t.Errorf("figure output:\n%s", out)
	}
	if err := er.WriteFigure(&buf, "nope"); err == nil {
		t.Error("unknown figure accepted")
	}
	if err := er.WriteFigure(&buf, "fig12"); err == nil {
		t.Error("figure without runs accepted")
	}
	buf.Reset()
	er.WriteSummary(&buf)
	if !strings.Contains(buf.String(), "workload:") {
		t.Error("summary missing workload line")
	}
}

func TestFigureIDs(t *testing.T) {
	ids := FigureIDs()
	if len(ids) != 6 || ids[0] != "fig9" || ids[5] != "fig14" {
		t.Errorf("FigureIDs = %v", ids)
	}
}

func TestAliasSamplerDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	weights := []float64{0.5, 0.25, 0.15, 0.1}
	s := newAliasSampler(weights, rng)
	counts := make([]int, len(weights))
	const n = 200000
	for i := 0; i < n; i++ {
		counts[s.Sample()]++
	}
	for i, w := range weights {
		got := float64(counts[i]) / n
		if math.Abs(got-w) > 0.01 {
			t.Errorf("weight %d: sampled %.3f, want %.3f", i, got, w)
		}
	}
	distinct := s.SampleDistinct(4)
	if len(distinct) != 4 {
		t.Errorf("SampleDistinct = %v", distinct)
	}
	seen := map[int]bool{}
	for _, d := range distinct {
		if seen[d] {
			t.Error("duplicate in SampleDistinct")
		}
		seen[d] = true
	}
	// Requesting more than the population clips.
	if got := s.SampleDistinct(10); len(got) != 4 {
		t.Errorf("clipped SampleDistinct = %v", got)
	}
}

func TestSetupRequiresWeights(t *testing.T) {
	db := strip.MustOpen(strip.Config{Virtual: true})
	if _, err := Setup(db, &feed.Trace{}, tinyConfig()); err == nil {
		t.Error("setup accepted a weightless trace")
	}
}

func TestVariantString(t *testing.T) {
	if CompUniqueComp.String() != "comps/unique-on-comp" || Variant(99).String() != "unknown" {
		t.Error("Variant.String wrong")
	}
	if !CompUnique.IsComp() || OptUnique.IsComp() {
		t.Error("IsComp wrong")
	}
}

func TestSchedAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("live timing experiment")
	}
	var buf bytes.Buffer
	if err := RunSchedAblation(&buf, SmallScale(), nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fifo") || !strings.Contains(out, "edf") || !strings.Contains(out, "vdf") {
		t.Errorf("ablation output:\n%s", out)
	}
}

func TestTaperAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	var buf bytes.Buffer
	if err := RunTaperAblation(&buf, tinyConfig(), nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Delay-window taper") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestLocalityAblationOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep")
	}
	var buf bytes.Buffer
	if err := RunLocalityAblation(&buf, tinyConfig(), nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Locality ablation") || !strings.Contains(out, "0.50") {
		t.Errorf("output:\n%s", out)
	}
}

// TestVirtualCostPinned pins the virtual-clock results: charged CPU (as
// TotalUtil), N_r, merges and mean recompute length of six replays, to the
// last bit, as they stood before the scheduler's start-rate window became a
// queue and transition tables became lazy. A change that is meant to leave
// the cost model alone must leave these alone; one that is meant to move it
// updates them and says so.
func TestVirtualCostPinned(t *testing.T) {
	cfg := tinyConfig()
	tr := mustTrace(t, cfg)
	for _, want := range []struct {
		v         Variant
		delay     float64
		totalUtil float64
		nr        int64
		merged    int64
		meanLen   float64
	}{
		{CompNonUnique, 0, 0.1463431, 918, 0, 3592.797385620915},
		{CompUnique, 1, 0.0627761, 30, 888, 26841},
		{CompUniqueSymbol, 0.5, 0.13339588333333333, 804, 114, 3549.1567164179105},
		{CompUniqueComp, 1, 0.06575493333333333, 1001, 4213, 724.0879120879121},
		{OptNonUnique, 0, 0.10837065, 858, 0, 2723.909090909091},
		{OptUniqueSymbol, 2, 0.07519918333333334, 491, 367, 2712.0672097759675},
	} {
		got, err := Run(cfg, tr, want.v, want.delay)
		if err != nil {
			t.Fatal(err)
		}
		if got.TotalUtil != want.totalUtil || got.Nr != want.nr ||
			got.TasksMerged != want.merged || got.MeanRecomputeMicros != want.meanLen {
			t.Errorf("%s delay=%vs: util %v N_r %d merged %d len %v; pinned util %v N_r %d merged %d len %v",
				want.v, want.delay, got.TotalUtil, got.Nr, got.TasksMerged, got.MeanRecomputeMicros,
				want.totalUtil, want.nr, want.merged, want.meanLen)
		}
	}
}
