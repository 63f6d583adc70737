package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"sort"
	"testing"
)

// Every workload, at a twentieth of the benchmark's run length, must pass
// every correctness gate and report every metric the contract line needs.
// feed_window runs traced so the layer walk is exercised too.
func TestWorkloadsPassGates(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			traced := w.name == "feed_window"
			res, err := run(w, 1, 1, traced, "")
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("gates failed: %v", res.Violations)
			}
			if res.Attempted < 100 || res.Failed != 0 {
				t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			var line bytes.Buffer
			if err := printContractLine(&line, res); err != nil {
				t.Fatal(err)
			}
			var got struct {
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			want := names(endToEnd)
			if traced {
				want = append(names(specific), names(perLayer)...)
			}
			if have := keys(got.Metrics); !equal(have, want) {
				t.Fatalf("contract line has metrics %v, want %v", have, want)
			}
			if !traced {
				for name, m := range got.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s = %v: end-to-end metrics are never 0", name, m.Value)
					}
				}
				return
			}
			// Layers are used where predicted and bypassed elsewhere.
			for name, pred := range map[string]func(float64) bool{
				"core.merge_ratio":          func(v float64) bool { return v > 0.5 },
				"wal.fsyncs_per_kop":        func(v float64) bool { return v == 0 },
				"repl.shipped_bytes_per_op": func(v float64) bool { return v == 0 },
				"viewgen.fallbacks":         func(v float64) bool { return v == 0 },
				"sqlparse.parse_ns.update":  func(v float64) bool { return v > 0 },
				"core.evaluate_us":          func(v float64) bool { return v > 0 },
			} {
				if v := got.Metrics[name].Value; !pred(v) {
					t.Errorf("%s = %v on %s", name, v, w.name)
				}
			}
		})
	}
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// equal compares two name sets.
func equal(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// The same seed must generate the same statements, another seed others.
func TestGeneratorDeterministic(t *testing.T) {
	for name, next := range map[string]func(*generator) op{
		"mixed": (*generator).mixed, "update": (*generator).update, "reads": (*generator).reads,
	} {
		a, b, c := streamHash(1, 2000, next), streamHash(1, 2000, next), streamHash(2, 2000, next)
		if a != b {
			t.Errorf("%s: seed 1 gave two different streams", name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", name)
		}
	}
	// An update never re-writes the price the stock already has.
	s := genSchema(1)
	g := newGenerator(1, 0, s)
	last := append([]int(nil), s.price...)
	for i := 0; i < 5000; i++ {
		o := g.update()
		if o.price == last[o.stock] || o.stock%nConns != 0 {
			t.Fatalf("update %d: %s (price before: %d)", i, o.sql, last[o.stock])
		}
		last[o.stock] = o.price
	}
}

// BENCHMARK.json and spec.go name the same workloads and metrics, and the
// file keeps to the limits the benchmark contract sets.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q / %q disagrees with spec.go or is too long", i, w.Name, w.Why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in spec.go", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		checkName(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || !unitRE.MatchString(m.Unit) {
			t.Errorf("end_to_end %d: %+v disagrees with spec.go %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	layer := append(append([]metricDef(nil), specific...), perLayer...)
	if len(spec.PerLayer) != len(layer) || len(layer) > 128 {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in spec.go", len(spec.PerLayer), len(layer))
	}
	for i, m := range spec.PerLayer {
		checkName(m.Name)
		d := layer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || !unitRE.MatchString(m.Unit) {
			t.Errorf("per_layer %d: %+v disagrees with spec.go %+v", i, m, d)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
}

func TestPercentiles(t *testing.T) {
	s := sample{50, 10, 40, 20, 30}.sorted()
	for p, want := range map[float64]int64{0.5: 30, 0.2: 10, 0.21: 20, 0.99: 50, 1: 50} {
		if got := s.pct(p); got != want {
			t.Errorf("pct(%v) = %d, want %d", p, got, want)
		}
	}
	if got := (sample{}).pct(0.5); got != 0 {
		t.Errorf("empty pct = %d", got)
	}
	// p99 needs ten samples beyond it; fewer samples report a lower tail.
	for n, want := range map[int]float64{5: 0.5, 100: 0.9, 1000: 0.99, 100000: 0.99} {
		if got := tailPct(n); math.Abs(got-want) > 1e-9 {
			t.Errorf("tailPct(%d) = %v, want %v", n, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
}

// The steady figures sit near the better end of the slices, so slices a
// noisy neighbour slowed do not move them and one fluke does not either.
func TestSteady(t *testing.T) {
	seg := make(sample, 0, 3200)
	for slice := 0; slice < 32; slice++ {
		v := int64(100 + slice%4) // quiet slices: 100..103
		switch {
		case slice >= 8 && slice < 24:
			v = 150 // half the phase ran on a disturbed machine
		case slice == 3:
			v = 60 // one fluke
		}
		for i := 0; i < 100; i++ {
			seg = append(seg, v)
		}
	}
	if got, n := steadyP50([]sample{seg}); got != 100 || n != 3200 {
		t.Errorf("steadyP50 = %d over %d samples, want 100 over 3200", got, n)
	}
	// The same samples as four segments of eight slices each.
	if got, _ := steadyP50([]sample{seg[:800], seg[800:1600], seg[1600:2400], seg[2400:]}); got != 100 {
		t.Errorf("steadyP50 over four segments = %d, want 100", got)
	}
	if got, n := steadyP50([]sample{{5, 1, 3}}); got != 3 || n != 3 {
		t.Errorf("steadyP50 of three samples = %d over %d, want their median 3", got, n)
	}
	wins := []float64{10, 11, 12, 13, 20, 21, 22, 23}
	if lo, hi := steady(wins, true), steady(wins, false); lo != 11 || hi != 22 {
		t.Errorf("steady = %v from below, %v from above, want 11 and 22", lo, hi)
	}
	if got := steady(nil, true); got != 0 {
		t.Errorf("steady of nothing = %v", got)
	}
}

func TestJudge(t *testing.T) {
	tight := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		name, better string
		bound        float64
		a, b         []float64
		verdict      string
	}{
		{"unchanged", "lower", 0.10, tight, []float64{102, 103, 101, 102, 102}, vOK},
		{"slower", "lower", 0.10, tight, []float64{115, 116, 114, 115, 115}, vRegressed},
		{"faster", "lower", 0.10, tight, []float64{80, 81, 79, 80, 80}, vBetter},
		{"throughput down", "higher", 0.10, tight, []float64{80, 81, 79, 80, 80}, vRegressed},
		{"throughput up", "higher", 0.10, tight, []float64{115, 116, 114, 115, 115}, vBetter},
		{"noisy", "lower", 0.10, []float64{100, 130, 80, 120, 90}, []float64{125, 95, 140, 85, 130}, vUnresolved},
		{"noisy but every run better", "lower", 0.10, []float64{100, 130, 110, 120, 140}, []float64{50, 70, 60, 90, 80}, vBetter},
		{"noisy and every run worse", "lower", 0.10, []float64{50, 70, 60, 90, 80}, []float64{100, 130, 110, 120, 140}, vRegressed},
		{"ungated", "lower", 0, tight, []float64{200, 200, 200, 200, 200}, vUngated},
	}
	for _, c := range cases {
		if _, got := judge(c.better, c.bound, c.a, c.b); got != c.verdict {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.verdict)
		}
	}
	if w, _ := judge("higher", 0.1, []float64{100}, []float64{90}); math.Abs(w-0.1) > 1e-9 {
		t.Errorf("worse = %v, want 0.1", w)
	}
}
