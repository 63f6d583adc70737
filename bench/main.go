// Command bench is the repository's one benchmark (ISSUE 12): four named
// workloads driven through package client against a real engine, eight
// end-to-end metrics every workload reports plus four that only some can,
// correctness gates, and a traced mode that adds a per-layer walk.
//
//	bash bench/run.sh                          all four workloads, summary
//	bash bench/run.sh -trace spans.jsonl       plus the traced pass and span file
//	bash bench/run.sh -repeat 5 -out runs.json repeated, with medians and spread
//	bash bench/run.sh -compare a.json b.json   regression table between two run files
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                           one run; last stdout line is the result
//
// See README.md for the metric glossary and BENCHMARK.json for the contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process (default: all four, one child process each)")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed generates the same statements")
		seconds  = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds in BENCHMARK.json)")
		trace    = flag.String("trace", "0", "0 = untraced run; 1 = traced run with the layer walk; any other value = traced, spans written to that file")
		repeat   = flag.Int("repeat", 1, "repeat the whole set this many times")
		out      = flag.String("out", "", "write every run, the environment and per-metric median/min/max to this JSON file")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments: one row per workload x metric")
	)
	flag.Parse()
	if err := realMain(*workload, *seed, *seconds, *trace, *repeat, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(workload string, seed int64, seconds float64, trace string, repeat int, out string, compare bool, args []string) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two run files")
		}
		return compareFiles(os.Stdout, spec, args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %v", args)
	}
	if seconds <= 0 {
		seconds = float64(spec.RunSeconds)
	}
	traced, spans := trace != "0", ""
	if traced && trace != "1" {
		spans = trace
	}

	if workload != "" {
		w, ok := findWorkload(workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", workload)
		}
		res, err := run(w, seed, seconds, traced, spans)
		if err != nil {
			return fmt.Errorf("%s: %w", workload, err)
		}
		printResult(os.Stderr, res)
		if out != "" {
			if err := writeRuns(out, seed, seconds, []*result{res}); err != nil {
				return err
			}
		}
		if err := printContractLine(os.Stdout, res); err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("%s: run is invalid: %s", workload, strings.Join(res.Violations, "; "))
		}
		return nil
	}

	// All four workloads, each in a process of its own so that CPU time and
	// peak RSS are per workload.
	if spans != "" {
		os.Remove(spans) //nolint:errcheck // children append to it
	}
	var runs []*result
	for rep := 0; rep < repeat; rep++ {
		passes := []string{"0"}
		if traced {
			passes = append(passes, trace)
		}
		for _, pass := range passes {
			for _, w := range workloads {
				res, err := runChild(w.name, seed, seconds, pass)
				if err != nil {
					return err
				}
				printResult(os.Stdout, res)
				runs = append(runs, res)
			}
		}
	}
	printSummary(os.Stdout, runs)
	if out != "" {
		if err := writeRuns(out, seed, seconds, runs); err != nil {
			return err
		}
	}
	for _, r := range runs {
		if !r.Correct {
			return fmt.Errorf("%s: run is invalid: %s", r.Workload, strings.Join(r.Violations, "; "))
		}
	}
	return nil
}

// runChild re-executes this binary for one workload and reads its result
// back from a file.
func runChild(workload string, seed int64, seconds float64, trace string) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(".bench_build", "result-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close() //nolint:errcheck // only the name is needed
	defer os.Remove(tmp.Name())
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", trace, "-out", tmp.Name())
	cmd.Stdout = io.Discard
	var stderr strings.Builder
	cmd.Stderr = &stderr
	runErr := cmd.Run()
	file, err := readRuns(tmp.Name())
	if err != nil || len(file.Runs) != 1 {
		return nil, fmt.Errorf("%s: child produced no result (%v): %s", workload, runErr, stderr.String())
	}
	return file.Runs[0], nil
}

// printContractLine prints the one-line JSON object the benchmark driver
// reads: every end_to_end metric of BENCHMARK.json for an untraced run,
// every per_layer metric for a traced one. A per-layer metric that does
// not exist on the workload (repl.* without a standby) reads 0.
func printContractLine(w io.Writer, res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	if !res.Trace {
		for _, d := range endToEnd {
			m, ok := res.Metrics[d.Name]
			if !ok {
				return fmt.Errorf("%s did not measure %s", res.Workload, d.Name)
			}
			line.Metrics[d.Name] = value{m.Value, d.Unit}
		}
	} else {
		for _, list := range [][]metricDef{specific, perLayer} {
			for _, d := range list {
				line.Metrics[d.Name] = value{res.Metrics[d.Name].Value, d.Unit}
			}
		}
	}
	return json.NewEncoder(w).Encode(line)
}

// printResult lists one run's metrics by name with unit and sample count.
func printResult(w io.Writer, res *result) {
	mode := "untraced"
	if res.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s, seed %d, %g s measured): %d attempted, %d failed\n",
		res.Workload, mode, res.Seed, res.Seconds, res.Attempted, res.Failed)
	for _, list := range [][]metricDef{endToEnd, specific, perLayer} {
		for _, d := range list {
			if m, ok := res.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "  %-36s %14.4f %-7s n=%d\n", d.Name, m.Value, d.Unit, m.N)
			}
		}
	}
	for _, v := range res.Violations {
		fmt.Fprintf(w, "  GATE FAILED: %s\n", v)
	}
}

// runsFile is what -out writes and -compare reads.
type runsFile struct {
	Env     map[string]any `json:"env"`
	Summary []summaryRow   `json:"summary"`
	Runs    []*result      `json:"runs"`
}

// summaryRow is one workload x metric over the untraced (end-to-end) or
// traced (per-layer) runs of a file.
type summaryRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Runs     int     `json:"runs"`
	Median   float64 `json:"median"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	// values in run order, for the spread and the every-run-better rule.
	values []float64
}

// summarize folds runs into one row per workload x metric, in spec order.
// End-to-end figures come from the untraced runs only, per-layer figures
// from the traced ones.
func summarize(runs []*result) []summaryRow {
	var out []summaryRow
	for _, w := range workloads {
		for i, list := range [][]metricDef{endToEnd, specific, perLayer} {
			for _, d := range list {
				var vals []float64
				for _, r := range runs {
					if m, ok := r.Metrics[d.Name]; ok && r.Workload == w.name && r.Trace == (i == 2) {
						vals = append(vals, m.Value)
					}
				}
				if len(vals) == 0 {
					continue
				}
				s := append([]float64(nil), vals...)
				sort.Float64s(s)
				out = append(out, summaryRow{Workload: w.name, Metric: d.Name, Unit: d.Unit, Runs: len(vals),
					Median: median(vals), Min: s[0], Max: s[len(s)-1], values: vals})
			}
		}
	}
	return out
}

func printSummary(w io.Writer, runs []*result) {
	rows := summarize(runs)
	fmt.Fprintf(w, "\n== summary: median [min .. max] over runs\n")
	cpu := map[string]float64{}
	for _, r := range rows {
		fmt.Fprintf(w, "  %-15s %-36s %14.4f [%.4f .. %.4f] %-7s runs=%d\n",
			r.Workload, r.Metric, r.Median, r.Min, r.Max, r.Unit, r.Runs)
		if r.Metric == "cpu_us_per_op" {
			cpu[r.Workload] = r.Median
		}
	}
	if cpu["feed_window"] > 0 {
		// The paper's headline in real CPU time; orientation, not gated.
		fmt.Fprintf(w, "  batch_cpu_ratio = cpu_us_per_op(feed_immediate) / cpu_us_per_op(feed_window) = %.3f\n",
			cpu["feed_immediate"]/cpu["feed_window"])
	}
}

func writeRuns(path string, seed int64, seconds float64, runs []*result) error {
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	env := map[string]any{
		"commit": commit, "go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc": runtime.NumCPU(), "seed": seed, "seconds": seconds,
	}
	// One summary row and one run per line: the file stays diffable and a
	// fifth the size of an indented one.
	var b strings.Builder
	var firstErr error
	line := func(v any) string {
		raw, err := json.Marshal(v)
		if err != nil && firstErr == nil {
			firstErr = err // a NaN metric, say
		}
		return string(raw)
	}
	b.WriteString("{\"env\": " + line(env) + ",\n \"summary\": [")
	for i, r := range summarize(runs) {
		b.WriteString(sep(i) + line(r))
	}
	b.WriteString("\n ],\n \"runs\": [")
	for i, r := range runs {
		b.WriteString(sep(i) + line(r))
	}
	b.WriteString("\n ]}\n")
	if firstErr != nil {
		return fmt.Errorf("%s: %w", path, firstErr)
	}
	return os.WriteFile(filepath.Clean(path), []byte(b.String()), 0o644)
}

// sep separates the i-th element of a one-per-line JSON array from the one
// before it.
func sep(i int) string {
	if i == 0 {
		return "\n  "
	}
	return ",\n  "
}

func readRuns(path string) (*runsFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file runsFile
	if err := json.Unmarshal(raw, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &file, nil
}
