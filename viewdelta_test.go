package strip

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/stripdb/strip/internal/obs"
)

// viewDefs are the oracle's two view shapes.
var viewDefs = map[string]string{
	"agg": `
	  select comp, sum(price * weight) as price
	  from stocks, comps_list
	  where stocks.symbol = comps_list.symbol
	  group by comp`,
	"perrow": `
	  select opt, vd_intrinsic(price, strike) as v
	  from stocks, opts
	  where stocks.symbol = opts.symbol`,
}

// viewDB builds one engine with the oracle's schema, seed data over `base`
// stocks rows, and a materialized view of the requested shape and
// maintenance mode. The agg shape's dimension grows with the base (two rows
// a symbol, in four groups); the perrow shape's is fixed.
func viewDB(t *testing.T, shape string, mode ViewMode, base int) *DB {
	t.Helper()
	db := MustOpen(Config{Virtual: true})
	t.Cleanup(func() { db.Close() })
	db.MustExec(`create table stocks (symbol text, price float)`)
	db.MustExec(`create index on stocks (symbol)`)
	for i := 0; i < base; i++ {
		db.MustExec(fmt.Sprintf(`insert into stocks values ('S%d', %d)`, i, 10+i))
	}
	var def *Select
	if shape == "agg" {
		db.MustExec(`create table comps_list (comp text, symbol text, weight float)`)
		db.MustExec(`create index on comps_list (symbol)`)
		// Each composite references a spread of symbols, including some
		// that do not exist yet (inserts later join them in).
		for c := 0; c < 4; c++ {
			for s := c; s < base+4; s += 2 {
				db.MustExec(fmt.Sprintf(`insert into comps_list values ('C%d', 'S%d', 0.%d5)`, c, s, c+1))
			}
		}
		// CX holds only symbols the random operations never touch: the
		// oracle scripts its birth, death and re-keying.
		db.MustExec(`insert into comps_list values ('CX', 'S20', 0.5), ('CX', 'S21', 0.25)`)
		def = mustSelect(t, viewDefs["agg"])
	} else {
		RegisterScalarFunc("vd_intrinsic", func(args []Value) (Value, error) {
			v := args[0].Float() - args[1].Float()
			if v < 0 {
				v = 0
			}
			return Float(v), nil
		})
		db.MustExec(`create table opts (opt text, symbol text, strike float)`)
		db.MustExec(`create index on opts (symbol)`)
		for o := 0; o < 16; o++ {
			db.MustExec(fmt.Sprintf(`insert into opts values ('O%d', 'S%d', %d)`, o, o%12, 8+o))
		}
		db.MustExec(`insert into opts values ('OX', 'S20', 3), ('OY', 'S21', 4)`)
		def = mustSelect(t, viewDefs["perrow"])
	}
	vi, err := db.CreateMaterializedView("v", def, ViewOptions{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	want := "delta"
	if mode == ViewModeFull {
		want = "full"
	}
	if vi.Maintenance != want {
		t.Fatalf("maintenance = %q, want %q", vi.Maintenance, want)
	}
	return db
}

// viewContents reads the view's key and value columns into a map.
func viewContents(t *testing.T, db *DB, shape string) map[string]float64 {
	t.Helper()
	q := `select comp, price from v`
	if shape != "agg" {
		q = `select opt, v from v`
	}
	out := db.MustExec(q)
	got := make(map[string]float64, len(out.Rows))
	for _, r := range out.Rows {
		got[r[0].Str()] = r[1].Float()
	}
	return got
}

// TestDeltaFullEquivalenceOracle drives identical randomized batches of
// base-table inserts, deletes, price updates, and join-key re-keys through
// two engines — one maintaining the view from transition deltas, one
// rebuilding it wholesale — and requires identical view contents, equal to
// a fresh evaluation of the defining query, after every settled batch, for
// both supported view shapes. A batch's firings merge into one maintenance
// task (the view's window is longer than a batch), scripted steps make a
// group appear, die, come back and lose its rows by re-keying, and all the
// while another goroutine writes the dimension — rows that join nothing, so
// the view's contents do not depend on them, but which go through the very
// index the delta chain probes. The delta engine must also actually run on
// the delta path: applied firings and zero consistency fallbacks.
func TestDeltaFullEquivalenceOracle(t *testing.T) {
	for _, shape := range []string{"agg", "perrow"} {
		t.Run(shape, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41))
			delta := viewDB(t, shape, ViewModeDelta, 8)
			full := viewDB(t, shape, ViewModeFull, 8)

			// The dimension writer.
			dimRow, dimDel := `insert into comps_list values ('CZ', 'Z9', 1.0)`, `delete from comps_list where symbol = 'Z9'`
			if shape != "agg" {
				dimRow, dimDel = `insert into opts values ('OZ', 'Z9', 1)`, `delete from opts where symbol = 'Z9'`
			}
			stop := make(chan struct{})
			var writers sync.WaitGroup
			for _, db := range []*DB{delta, full} {
				writers.Add(1)
				go func() {
					defer writers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						for _, sql := range []string{dimRow, dimDel} {
							if _, err := db.Exec(sql); err != nil {
								t.Errorf("dimension writer: %v", err)
								return
							}
						}
					}
				}()
			}
			defer writers.Wait()
			defer close(stop)

			live := map[string]bool{}
			for i := 0; i < 8; i++ {
				live[fmt.Sprintf("S%d", i)] = true
			}
			next := 8
			// pick chooses a live symbol deterministically: map iteration
			// order is randomized per process, so sort before indexing by
			// the seeded rng.
			pick := func() string {
				ks := make([]string, 0, len(live))
				for k := range live {
					ks = append(ks, k)
				}
				if len(ks) == 0 {
					return ""
				}
				sortStrings(ks)
				return ks[rng.Intn(len(ks))]
			}

			both := func(sql string) {
				delta.MustExec(sql)
				full.MustExec(sql)
			}
			// The scripted life of the group (agg: CX) or view rows (perrow:
			// OX, OY) over S20 and S21, by batch.
			script := map[int]string{
				2:  `insert into stocks values ('S20', 12)`,                 // birth
				5:  `insert into stocks values ('S21', 20)`,                 // a second base row joins
				8:  `delete from stocks where symbol = 'S20'`,               // one leaves
				11: `delete from stocks where symbol = 'S21'`,               // death
				14: `insert into stocks values ('S21', 8)`,                  // rebirth
				17: `update stocks set symbol = 'S20' where symbol = 'S21'`, // re-keyed within the group
				20: `update stocks set symbol = 'S22' where symbol = 'S20'`, // re-keyed out of it: death again
			}
			scripted, born, died := "CX", 0, 0
			if shape != "agg" {
				scripted = "OX"
			}
			for batch := 0; batch < 25; batch++ {
				if sql, ok := script[batch]; ok {
					both(sql)
				}
				for op := 0; op < 1+rng.Intn(4); op++ {
					switch r := rng.Intn(10); {
					case r < 4: // price update
						if s := pick(); s != "" {
							both(fmt.Sprintf(`update stocks set price = %d where symbol = '%s'`, 5+rng.Intn(40), s))
						}
					case r < 6: // insert (fresh unique symbol, maybe joining dim rows)
						s := fmt.Sprintf("S%d", next%14)
						if !live[s] {
							live[s] = true
							both(fmt.Sprintf(`insert into stocks values ('%s', %d)`, s, 5+rng.Intn(40)))
						}
						next++
					case r < 8: // delete
						if s := pick(); s != "" {
							delete(live, s)
							both(fmt.Sprintf(`delete from stocks where symbol = '%s'`, s))
						}
					default: // re-key: move the row's join key (group churn)
						s := pick()
						to := fmt.Sprintf("S%d", rng.Intn(14))
						if s != "" && !live[to] {
							delete(live, s)
							live[to] = true
							both(fmt.Sprintf(`update stocks set symbol = '%s' where symbol = '%s'`, to, s))
						}
					}
				}
				delta.WaitIdle()
				full.WaitIdle()
				want := viewContents(t, full, shape)
				got := viewContents(t, delta, shape)
				def := map[string]float64{}
				for _, r := range delta.MustExec(viewDefs[shape]).Rows {
					def[r[0].Str()] = r[1].Float()
				}
				if len(got) != len(want) || len(def) != len(want) {
					t.Fatalf("batch %d: delta view has %d rows, full has %d, the defining query %d\n delta=%v\n full=%v\n query=%v",
						batch, len(got), len(want), len(def), got, want, def)
				}
				for k, w := range want {
					g, ok := got[k]
					if d, inDef := def[k]; !ok || !inDef || math.Abs(g-w) > 1e-6*(1+math.Abs(w)) || math.Abs(d-w) > 1e-6*(1+math.Abs(w)) {
						t.Fatalf("batch %d key %s: delta=%v full=%v query=%v", batch, k, g, w, d)
					}
				}
				if _, alive := got[scripted]; alive && born == died {
					born++
				} else if !alive && born > died {
					died++
				}
			}
			if born != 2 || died != 2 {
				t.Errorf("%s was born %d times and died %d times, want 2 and 2", scripted, born, died)
			}

			dm := delta.Metrics().Counters
			if dm[obs.MDeltaApplied] == 0 {
				t.Error("delta engine never took the delta path")
			}
			if dm[obs.MDeltaFallbacks] != 0 {
				t.Errorf("delta engine fell back %d times", dm[obs.MDeltaFallbacks])
			}
			if merged := delta.Stats("maintain_v_fn").TasksMerged; merged == 0 {
				t.Error("no batch merged several firings into one maintenance task")
			}
			fm := full.Metrics().Counters
			if fm[obs.MDeltaApplied] != 0 {
				t.Errorf("full engine applied deltas %d times", fm[obs.MDeltaApplied])
			}
		})
	}
}

func sortStrings(ss []string) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j] < ss[j-1]; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// TestDeltaFallbackRepairsView corrupts an aggregation view out from under
// its delta maintainer (deleting a group row the next delta expects to
// update) and checks the consistency check trips, the counter records the
// fallback, and the full rebuild inside the same action repairs the view.
func TestDeltaFallbackRepairsView(t *testing.T) {
	db := viewDB(t, "agg", ViewModeDelta, 8)
	db.WaitIdle()

	out := db.MustExec(`select comp, price from v where comp = 'C0'`)
	if len(out.Rows) != 1 {
		t.Fatalf("seed group missing: %v", out.Rows)
	}
	// Sabotage: remove the group row. The next update's delta has zero net
	// support change but a nonzero sum against a missing row — exactly the
	// "view lost state" signature ApplyAggDeltas must refuse to paper over.
	db.MustExec(`delete from v where comp = 'C0'`)

	db.MustExec(`update stocks set price = 99 where symbol = 'S0'`)
	db.WaitIdle()

	c := db.Metrics().Counters
	if c[obs.MDeltaFallbacks] != 1 {
		t.Fatalf("delta.fallbacks = %d, want 1", c[obs.MDeltaFallbacks])
	}
	// The fallback rebuilt the whole view: C0 is back and every group
	// matches a fresh evaluation of the defining query.
	want := db.MustExec(`
	  select comp, sum(price * weight) as price
	  from stocks, comps_list
	  where stocks.symbol = comps_list.symbol
	  group by comp`)
	got := viewContents(t, db, "agg")
	if len(got) != len(want.Rows) {
		t.Fatalf("view has %d groups, recompute has %d", len(got), len(want.Rows))
	}
	for _, r := range want.Rows {
		if math.Abs(got[r[0].Str()]-r[1].Float()) > 1e-9 {
			t.Errorf("group %s: view=%v recompute=%v", r[0].Str(), got[r[0].Str()], r[1].Float())
		}
	}
	if db.Stats("maintain_v_fn").TaskErrors != 0 {
		t.Errorf("fallback surfaced as task error")
	}
}

// TestDeltaCostFlatAcrossBaseSize pins what the delta path is for: keeping a
// view costs O(|delta|), not O(|base|). The same 8 batches of 8 price updates
// run over 500 and over 5,000 stocks rows (the dimension grows with them). On
// the virtual clock the delta action costs the same per firing, to the
// microsecond, at both sizes; the full rebuild's cost follows the base; and
// both modes leave the same view behind.
func TestDeltaCostFlatAcrossBaseSize(t *testing.T) {
	const small, large = 500, 5000
	// perFiring runs the workload and returns the maintenance function's
	// virtual cost per task, and the view it leaves.
	perFiring := func(mode ViewMode, base int) (float64, map[string]float64) {
		db := viewDB(t, "agg", mode, base)
		db.WaitIdle()
		before := db.Stats("maintain_v_fn")
		for b := 0; b < 8; b++ {
			for u := 0; u < 8; u++ {
				// At most S483: the same symbols at both sizes.
				db.MustExec(fmt.Sprintf(`update stocks set price = %d where symbol = 'S%d'`,
					10+(b*8+u)%90, b*56+u*13))
			}
			db.WaitIdle()
		}
		after := db.Stats("maintain_v_fn")
		tasks := after.TasksRun - before.TasksRun
		if fallbacks := db.Metrics().Counters[obs.MDeltaFallbacks]; tasks == 0 || after.TaskErrors != 0 || fallbacks != 0 {
			t.Fatalf("%d rows, full=%t: %d maintenance tasks, %d task errors, %d delta fallbacks",
				base, mode == ViewModeFull, tasks, after.TaskErrors, fallbacks)
		}
		return (after.WorkMicros - before.WorkMicros) / float64(tasks), viewContents(t, db, "agg")
	}

	var delta, full [2]float64
	for i, base := range []int{small, large} {
		var deltaView, fullView map[string]float64
		delta[i], deltaView = perFiring(ViewModeDelta, base)
		full[i], fullView = perFiring(ViewModeFull, base)
		if len(deltaView) != len(fullView) {
			t.Fatalf("%d rows: delta view has %d groups, full has %d", base, len(deltaView), len(fullView))
		}
		for k, f := range fullView {
			if d, ok := deltaView[k]; !ok || math.Abs(d-f) > 1e-6*(1+math.Abs(f)) {
				t.Errorf("%d rows, group %s: delta=%v full=%v", base, k, d, f)
			}
		}
	}
	t.Logf("µs per firing at %d and %d rows: delta %.0f and %.0f, full %.0f and %.0f (%.2fx)",
		small, large, delta[0], delta[1], full[0], full[1], full[1]/full[0])
	if delta[0] != delta[1] {
		t.Errorf("delta maintenance costs %.0f µs per firing over %d rows and %.0f over %d: it follows the base",
			delta[0], small, delta[1], large)
	}
	if full[1] < 5*full[0] {
		t.Errorf("full rebuild costs %.0f µs over %d rows and %.0f over %d: under 5x for a 10x base",
			full[0], small, full[1], large)
	}
}

// The generated delta action for a one-row update that touches two groups
// — begin, two index probes, two held updates, commit — stays under its
// allocation ceiling (165 allocations when each leaf was a planned GROUP BY
// select and each group's update a freshly built statement, 38 while each
// lock boxed its name and kept per-shard and per-transaction maps).
func TestViewDeltaActionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	db := viewDB(t, "agg", ViewModeDelta, 8)
	price := 100
	run := func() float64 {
		price++
		db.MustExec(fmt.Sprintf(`update stocks set price = %d where symbol = 'S2'`, price)) // in C0 and C2
		when, ok := db.NextTaskTime()
		if !ok {
			t.Fatal("the update queued no maintenance task")
		}
		db.AdvanceTo(when)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := db.RunReady()
		runtime.ReadMemStats(&after)
		if n != 1 {
			t.Fatalf("%d tasks ran, want the one maintenance task", n)
		}
		return float64(after.Mallocs - before.Mallocs)
	}
	run()
	const runs = 100
	total := 0.0
	for i := 0; i < runs; i++ {
		total += run()
	}
	if got := total / runs; got > 16 {
		t.Errorf("the view delta action allocates %.1f times per run, ceiling 16", got)
	} else {
		t.Logf("%.1f allocations per run", got)
	}
	if n := db.Metrics().Counters[obs.MDeltaFallbacks]; n != 0 {
		t.Errorf("%d delta fallbacks", n)
	}
}
