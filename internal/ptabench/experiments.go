package ptabench

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"github.com/stripdb/strip/internal/feed"
)

// DefaultDelays are the paper's delay-window sweep (0.5–3 s, §5.1).
func DefaultDelays() []float64 { return []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.0} }

// CompVariants returns the §5.1 configurations.
func CompVariants() []Variant {
	return []Variant{CompNonUnique, CompUnique, CompUniqueSymbol, CompUniqueComp}
}

// OptionVariants returns the §5.2 configurations. The per-option-symbol
// variant is included only on request (the paper found it unmanageable and
// omitted it from its graphs).
func OptionVariants(includePerOption bool) []Variant {
	vs := []Variant{OptNonUnique, OptUnique, OptUniqueSymbol}
	if includePerOption {
		vs = append(vs, OptUniqueOption)
	}
	return vs
}

// ExperimentResult is a full sweep: every (variant, delay) run over one
// generated trace.
type ExperimentResult struct {
	Workload   WorkloadConfig
	TraceStats feed.Stats
	Runs       []RunResult
}

// RunExperiment generates the trace once and replays it under every
// (variant, delay) combination. Non-unique variants ignore the delay sweep
// (their behavior does not depend on it; they appear as the horizontal
// line in Figures 9 and 12) and run once with delay 0.
func RunExperiment(wcfg WorkloadConfig, variants []Variant, delays []float64, progress func(string)) (*ExperimentResult, error) {
	tr, err := feed.Generate(wcfg.Feed)
	if err != nil {
		return nil, err
	}
	out := &ExperimentResult{Workload: wcfg, TraceStats: tr.Stats()}
	note := func(format string, args ...any) {
		if progress != nil {
			progress(fmt.Sprintf(format, args...))
		}
	}
	note("trace: %d updates, %.1f/s, burst fraction %.2f",
		out.TraceStats.Updates, out.TraceStats.MeanRate, out.TraceStats.BurstFraction)
	for _, v := range variants {
		ds := delays
		if v == CompNonUnique || v == OptNonUnique {
			ds = []float64{0}
		}
		for _, d := range ds {
			r, err := Run(wcfg, tr, v, d)
			if err != nil {
				return nil, fmt.Errorf("ptabench: %s delay %.1f: %w", v, d, err)
			}
			out.Runs = append(out.Runs, r)
			note("%s (%.1fs real)", r, r.RealSeconds)
		}
	}
	return out, nil
}

// Find returns the run for (variant, delay); non-unique variants match any
// delay.
func (er *ExperimentResult) Find(v Variant, delay float64) (RunResult, bool) {
	for _, r := range er.Runs {
		if r.Variant != v {
			continue
		}
		if v == CompNonUnique || v == OptNonUnique || r.DelaySec == delay {
			return r, true
		}
	}
	return RunResult{}, false
}

// figureSpec maps one paper figure to a metric.
type figureSpec struct {
	id     string
	title  string
	comp   bool
	metric func(RunResult) float64
	unit   string
}

func figures() []figureSpec {
	return []figureSpec{
		{"fig9", "CPU utilization maintaining comp_prices (Figure 9)", true,
			func(r RunResult) float64 { return r.CPUUtil * 100 }, "% CPU"},
		{"fig10", "Recompute transactions N_r, comp_prices (Figure 10)", true,
			func(r RunResult) float64 { return float64(r.Nr) }, "transactions"},
		{"fig11", "Mean recompute transaction length, comp_prices (Figure 11)", true,
			func(r RunResult) float64 { return r.MeanRecomputeMicros / 1000 }, "ms"},
		{"fig12", "CPU utilization maintaining option_prices (Figure 12)", false,
			func(r RunResult) float64 { return r.CPUUtil * 100 }, "% CPU"},
		{"fig13", "Recompute transactions N_r, option_prices (Figure 13)", false,
			func(r RunResult) float64 { return float64(r.Nr) }, "transactions"},
		{"fig14", "Mean recompute transaction length, option_prices (Figure 14)", false,
			func(r RunResult) float64 { return r.MeanRecomputeMicros / 1000 }, "ms"},
	}
}

// FigureIDs lists the reproducible figure identifiers.
func FigureIDs() []string {
	var out []string
	for _, f := range figures() {
		out = append(out, f.id)
	}
	return out
}

// WriteFigure renders one paper figure as a text table: one row per delay,
// one column per variant (non-unique repeated on every row, as the
// horizontal line in the paper's graphs).
func (er *ExperimentResult) WriteFigure(w io.Writer, figID string) error {
	var spec *figureSpec
	for _, f := range figures() {
		if f.id == figID {
			spec = &f
			break
		}
	}
	if spec == nil {
		return fmt.Errorf("ptabench: unknown figure %q (have %s)", figID, strings.Join(FigureIDs(), ", "))
	}

	var variants []Variant
	delaySet := map[float64]bool{}
	for _, r := range er.Runs {
		if r.Variant.IsComp() != spec.comp {
			continue
		}
		found := false
		for _, v := range variants {
			if v == r.Variant {
				found = true
			}
		}
		if !found {
			variants = append(variants, r.Variant)
		}
		if r.Variant != CompNonUnique && r.Variant != OptNonUnique {
			delaySet[r.DelaySec] = true
		}
	}
	if len(variants) == 0 {
		return fmt.Errorf("ptabench: no runs for figure %s in this experiment", figID)
	}
	var delays []float64
	for d := range delaySet {
		delays = append(delays, d)
	}
	sort.Float64s(delays)

	fmt.Fprintf(w, "%s [%s]\n", spec.title, spec.unit)
	fmt.Fprintf(w, "%-10s", "delay(s)")
	for _, v := range variants {
		fmt.Fprintf(w, " %24s", shortName(v))
	}
	fmt.Fprintln(w)
	for _, d := range delays {
		fmt.Fprintf(w, "%-10.1f", d)
		for _, v := range variants {
			if r, ok := er.Find(v, d); ok {
				fmt.Fprintf(w, " %24s", formatMetric(spec.metric(r)))
			} else {
				fmt.Fprintf(w, " %24s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}

func shortName(v Variant) string {
	s := v.String()
	if i := strings.IndexByte(s, '/'); i >= 0 {
		return s[i+1:]
	}
	return s
}

func formatMetric(x float64) string {
	switch {
	case x >= 1000:
		return fmt.Sprintf("%.0f", x)
	case x >= 10:
		return fmt.Sprintf("%.1f", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}

// WriteSummary renders every run.
func (er *ExperimentResult) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "workload: %d stocks, %d composites x %d, %d options, %d updates (%.1f/s, burst %.2f)\n",
		er.Workload.Feed.NumStocks, er.Workload.NumComposites, er.Workload.CompSize,
		er.Workload.NumOptions, er.TraceStats.Updates, er.TraceStats.MeanRate, er.TraceStats.BurstFraction)
	for _, r := range er.Runs {
		fmt.Fprintln(w, r)
	}
}
