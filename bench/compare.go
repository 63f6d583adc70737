package main

import (
	"fmt"
	"io"
	"sort"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the benchmark driver's rule).
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of the values as a share of their
// median; 0 when there are too few values to have one.
func spread(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	q1, q3 := quartiles(values)
	if m := median(values); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// Verdicts of one workload x metric pair.
const (
	vOK         = "ok"
	vBetter     = "better"
	vRegressed  = "REGRESSED"
	vUnresolved = "unresolved"
	vUngated    = "-"
)

// judge applies a metric's direction and bound to two sets of runs. A pair
// whose run-to-run spread exceeds the bound is unresolved, not unchanged,
// unless every run of one side beats every run of the other.
func judge(better string, bound float64, a, b []float64) (worse float64, verdict string) {
	ma, mb := median(a), median(b)
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	if ma != 0 {
		worse = sign * (mb - ma) / ma
	}
	if bound <= 0 {
		return worse, vUngated
	}
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
			if sign*(y-x) <= 0 {
				allWorse = false
			}
		}
	}
	if max(spread(a), spread(b)) > bound {
		switch {
		case allBetter:
			return worse, vBetter
		case allWorse && worse > bound:
			return worse, vRegressed
		default:
			return worse, vUnresolved
		}
	}
	switch {
	case worse > bound:
		return worse, vRegressed
	case worse < -bound:
		return worse, vBetter
	default:
		return worse, vOK
	}
}

// compareFiles prints one row per workload x metric present in both run
// files and returns an error when any gated metric regressed.
func compareFiles(w io.Writer, spec *benchSpec, aPath, bPath string) error {
	fa, err := readRuns(aPath)
	if err != nil {
		return err
	}
	fb, err := readRuns(bPath)
	if err != nil {
		return err
	}
	// Direction and bound: BENCHMARK.json for the end-to-end metrics, the
	// bench's own gate for the workload-specific ones, none for layers.
	better, bound := map[string]string{}, map[string]float64{}
	for _, list := range [][]metricDef{specific, perLayer} {
		for _, d := range list {
			better[d.Name], bound[d.Name] = d.Better, d.Gate
		}
	}
	for _, m := range spec.EndToEnd {
		better[m.Name], bound[m.Name] = m.Better, m.Bound
	}
	type key struct{ workload, metric string }
	inB := map[key]summaryRow{}
	for _, r := range summarize(fb.Runs) {
		inB[key{r.Workload, r.Metric}] = r
	}
	fmt.Fprintf(w, "a = %s (commit %v)\nb = %s (commit %v)\n", aPath, fa.Env["commit"], bPath, fb.Env["commit"])
	fmt.Fprintf(w, "%-15s %-36s %14s %14s %8s %7s %8s  %s\n",
		"workload", "metric", "a median", "b median", "worse%", "bound%", "spread%", "verdict")
	regressed := 0
	for _, ra := range summarize(fa.Runs) {
		rb, ok := inB[key{ra.Workload, ra.Metric}]
		if !ok {
			continue
		}
		worse, verdict := judge(better[ra.Metric], bound[ra.Metric], ra.values, rb.values)
		if ra.Metric == "fail_ratio" {
			// An absolute limit, not a ratio to the other side.
			worse, verdict = 0, vOK
			if rb.Median > maxFailRatio {
				verdict = vRegressed
			}
		}
		if verdict == vRegressed {
			regressed++
		}
		fmt.Fprintf(w, "%-15s %-36s %14.4f %14.4f %+8.1f %7.1f %8.1f  %s\n",
			ra.Workload, ra.Metric, ra.Median, rb.Median, 100*worse, 100*bound[ra.Metric],
			100*max(spread(ra.values), spread(rb.values)), verdict)
	}
	if regressed > 0 {
		return fmt.Errorf("%d workload x metric pairs regressed", regressed)
	}
	return nil
}
