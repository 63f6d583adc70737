// Command stripbench regenerates the paper's evaluation (Figures 9–14 and
// the Table 1 timings) on the virtual-clock engine. It writes nothing but
// stdout (the tables) and stderr (per-run progress).
//
// Usage:
//
//	stripbench -exp all                 # Table 1 and Figures 9–14, paper scale
//	stripbench -exp fig9 -scale small   # one figure, reduced scale
//	stripbench -exp table1
//	stripbench -exp sched               # scheduler-policy ablation
//	stripbench -exp locality            # burstiness sweep ablation
//	stripbench -exp taper               # delay sweep past 3 s (diminishing returns)
//	stripbench -exp fig13 -include-option-symbol
//
// -exp all leaves the three ablations (sched, locality, taper) out: they are
// not in the paper. Paper-scale runs replay ≈60,000 updates per (variant,
// delay) point and take a few minutes in total; -scale small completes in
// seconds.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/stripdb/strip/internal/cost"
	"github.com/stripdb/strip/internal/ptabench"
)

// settings are the flags an experiment runs under.
type settings struct {
	wcfg          ptabench.WorkloadConfig
	includeOptSym bool
	progress      func(string)
}

// The two sweeps of the paper's evaluation (§5.1, §5.2).
var (
	compFigs   = figures(true, "fig9", "fig10", "fig11")
	optionFigs = figures(false, "fig12", "fig13", "fig14")
)

// experiments is the one list of -exp names, in the order the help text and
// the unknown-name message print them.
var experiments = []struct {
	name string
	run  func(settings) error
}{
	{"all", func(o settings) error {
		printTable1()
		if err := compFigs(o); err != nil {
			return err
		}
		return optionFigs(o)
	}},
	{"table1", func(settings) error { printTable1(); return nil }},
	{"comps", compFigs},
	{"options", optionFigs},
	{"fig9", figures(true, "fig9")},
	{"fig10", figures(true, "fig10")},
	{"fig11", figures(true, "fig11")},
	{"fig12", figures(false, "fig12")},
	{"fig13", figures(false, "fig13")},
	{"fig14", figures(false, "fig14")},
	{"sched", ablation(ptabench.RunSchedAblation)},
	{"locality", ablation(ptabench.RunLocalityAblation)},
	{"taper", ablation(ptabench.RunTaperAblation)},
}

func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, ", ")
}

func main() {
	exp := flag.String("exp", "all", "experiment: "+experimentNames())
	scale := flag.String("scale", "paper", "workload scale: paper or small")
	includeOptSym := flag.Bool("include-option-symbol", false,
		"also run the unique-on-option_symbol configuration (the paper found it unmanageable)")
	quiet := flag.Bool("q", false, "suppress per-run progress")
	flag.Parse()

	o := settings{wcfg: ptabench.PaperScale(), includeOptSym: *includeOptSym}
	if *scale == "small" {
		o.wcfg = ptabench.SmallScale()
	} else if *scale != "paper" {
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if !*quiet {
		o.progress = func(s string) { fmt.Fprintln(os.Stderr, s) }
	}

	for _, e := range experiments {
		if e.name == *exp {
			if err := e.run(o); err != nil {
				fmt.Fprintln(os.Stderr, "stripbench:", err)
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown experiment %q (have %s)\n", *exp, experimentNames())
	os.Exit(2)
}

// figures runs the comp_prices (comp) or option_prices sweep once and prints
// its summary and the named figures.
func figures(comp bool, ids ...string) func(settings) error {
	return func(o settings) error {
		variants := ptabench.CompVariants()
		if !comp {
			variants = ptabench.OptionVariants(o.includeOptSym)
		}
		er, err := ptabench.RunExperiment(o.wcfg, variants, ptabench.DefaultDelays(), o.progress)
		if err != nil {
			return err
		}
		fmt.Println()
		er.WriteSummary(os.Stdout)
		for _, id := range ids {
			fmt.Println()
			if err := er.WriteFigure(os.Stdout, id); err != nil {
				return err
			}
		}
		return nil
	}
}

func ablation(run func(io.Writer, ptabench.WorkloadConfig, func(string)) error) func(settings) error {
	return func(o settings) error { return run(os.Stdout, o.wcfg, o.progress) }
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
