// Command stripbench regenerates the paper's evaluation (Figures 9–14 and
// the Table 1 timings) on the virtual-clock engine.
//
// Usage:
//
//	stripbench -exp all                 # everything, paper scale
//	stripbench -exp fig9 -scale small   # one figure, reduced scale
//	stripbench -exp table1
//	stripbench -exp sched               # scheduler-policy ablation
//	stripbench -exp locality            # burstiness sweep ablation
//	stripbench -exp fig13 -include-option-symbol
//	stripbench -exp contention -workers 1,2,4,8   # lock-scaling sweep
//	stripbench -exp mvcc                # snapshot-read scan-vs-writer sweep
//	stripbench -exp overload            # feed-rate ramp vs shedding policy
//	stripbench -exp delta               # delta vs full view maintenance sweep
//	stripbench -exp repl                # read scale-out across WAL-shipping replicas
//
// Paper-scale runs replay ≈60,000 updates per (variant, delay) point and
// take a few minutes in total; -scale small completes in seconds.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/stripdb/strip/internal/cost"
	"github.com/stripdb/strip/internal/ptabench"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, comps, options, fig9..fig14, table1, sched, locality, taper, contention, mvcc, overload, delta, repl")
	scale := flag.String("scale", "paper", "workload scale: paper or small")
	includeOptSym := flag.Bool("include-option-symbol", false,
		"also run the unique-on-option_symbol configuration (the paper found it unmanageable)")
	quiet := flag.Bool("q", false, "suppress per-run progress")
	metricsPath := flag.String("metrics", "BENCH_metrics.json",
		"write a per-run metrics artifact (throughput, p95/p99 action latency, max staleness) to this file; empty disables")
	workers := flag.String("workers", "1,2,4,8",
		"comma-separated worker-pool sizes for -exp contention")
	flag.Parse()

	wcfg := ptabench.PaperScale()
	if *scale == "small" {
		wcfg = ptabench.SmallScale()
	} else if *scale != "paper" {
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	progress := func(s string) { fmt.Fprintln(os.Stderr, s) }
	if *quiet {
		progress = nil
	}

	switch *exp {
	case "table1":
		printTable1()
	case "contention":
		// The lock-scaling sweep gets its own artifact so it never
		// clobbers the figure metrics from other experiments.
		path := *metricsPath
		if path == "BENCH_metrics.json" {
			path = "BENCH_contention.json"
		}
		runContention(path, *scale, *workers, progress)
	case "mvcc":
		path := *metricsPath
		if path == "BENCH_metrics.json" {
			path = "BENCH_mvcc.json"
		}
		runMvcc(path, *scale, progress)
	case "overload":
		path := *metricsPath
		if path == "BENCH_metrics.json" {
			path = "BENCH_overload.json"
		}
		runOverload(path, *scale, progress)
	case "delta":
		path := *metricsPath
		if path == "BENCH_metrics.json" {
			path = "BENCH_delta.json"
		}
		runDeltaBench(path, *scale, progress)
	case "repl":
		path := *metricsPath
		if path == "BENCH_metrics.json" {
			path = "BENCH_repl.json"
		}
		runReplBench(path, *scale, progress)
	case "sched":
		if err := ptabench.RunSchedAblation(os.Stdout, wcfg, progress); err != nil {
			fail(err)
		}
	case "locality":
		if err := ptabench.RunLocalityAblation(os.Stdout, wcfg, progress); err != nil {
			fail(err)
		}
	case "taper":
		if err := ptabench.RunTaperAblation(os.Stdout, wcfg, progress); err != nil {
			fail(err)
		}
	case "all":
		printTable1()
		er1 := runFigures(wcfg, []string{"fig9", "fig10", "fig11"}, *includeOptSym, progress)
		er2 := runFigures(wcfg, []string{"fig12", "fig13", "fig14"}, *includeOptSym, progress)
		er1.Runs = append(er1.Runs, er2.Runs...)
		writeMetrics(*metricsPath, er1)
	case "comps", "fig9", "fig10", "fig11":
		ids := []string{"fig9", "fig10", "fig11"}
		if *exp != "comps" {
			ids = []string{*exp}
		}
		writeMetrics(*metricsPath, runFigures(wcfg, ids, *includeOptSym, progress))
	case "options", "fig12", "fig13", "fig14":
		ids := []string{"fig12", "fig13", "fig14"}
		if *exp != "options" {
			ids = []string{*exp}
		}
		writeMetrics(*metricsPath, runFigures(wcfg, ids, *includeOptSym, progress))
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func runFigures(wcfg ptabench.WorkloadConfig, ids []string, includeOptSym bool, progress func(string)) *ptabench.ExperimentResult {
	comp := ids[0] == "fig9" || ids[0] == "fig10" || ids[0] == "fig11"
	variants := ptabench.CompVariants()
	if !comp {
		variants = ptabench.OptionVariants(includeOptSym)
	}
	er, err := ptabench.RunExperiment(wcfg, variants, ptabench.DefaultDelays(), progress)
	if err != nil {
		fail(err)
	}
	fmt.Println()
	er.WriteSummary(os.Stdout)
	for _, id := range ids {
		fmt.Println()
		if err := er.WriteFigure(os.Stdout, id); err != nil {
			fail(err)
		}
	}
	return er
}

// writeMetrics dumps the experiment's per-run metrics artifact so future
// changes have a perf trajectory to compare against.
func writeMetrics(path string, er *ptabench.ExperimentResult) {
	if path == "" || er == nil {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := er.WriteMetricsJSON(f); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "wrote metrics artifact: %s (%d runs)\n", path, len(er.Runs))
}

func printTable1() {
	m := cost.Default()
	fmt.Println("Table 1: basic STRIP operation costs (virtual cost model, µs)")
	rows := []struct {
		name string
		val  float64
	}{
		{"begin task", m.BeginTask},
		{"begin transaction", m.BeginTxn},
		{"get lock", m.GetLock},
		{"open cursor", m.OpenCursor},
		{"fetch cursor", m.FetchCursor},
		{"update via cursor", m.UpdateCursor},
		{"close cursor", m.CloseCursor},
		{"release lock", m.ReleaseLock},
		{"commit transaction", m.CommitTxn},
		{"end task", m.EndTask},
	}
	for _, r := range rows {
		fmt.Printf("  %-22s %6.0f\n", r.name, r.val)
	}
	fmt.Printf("  %-22s %6.0f  (=> %.0f TPS)\n", "simple 1-tuple update",
		m.SimpleUpdateCost(), 1e6/m.SimpleUpdateCost())
	fmt.Println("  (run `go test -bench Table1 .` for measured Go-level timings)")
	fmt.Println()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "stripbench:", err)
	os.Exit(1)
}
