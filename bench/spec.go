package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// workloadDef describes one named workload. Names are fixed: later issues
// cite them.
type workloadDef struct {
	name, why string
	rule      bool // the hand-written Figure 3 rule keeps comp_prices
	view      bool // a generated delta-maintained view keeps comp_view
	durable   bool // DataDir on the primary plus one warm standby
	windowMs  int  // the rule's `after` window, and the view's delay
	rate      int  // paced updates/s over both connections; 0 = closed-loop read mix
}

var workloads = []workloadDef{
	{name: "read_mix",
		why: "served reads (80 point, 16 join, 2 scan, 2 update per 100) with no rules: wire codec, sqlparse, plan and snapshot storage do all the work"},
	{name: "feed_immediate", rule: true, view: true, rate: 4500,
		why: "paced price feed, rule and view with no delay: nearly every firing is its own task and transaction, so per-task cost dominates"},
	{name: "feed_window", rule: true, view: true, windowMs: 500, rate: 4500,
		why: "the same feed with a 500 ms unique window: most firings merge into queued tasks, so merge and batch paths dominate (the paper's trade)"},
	{name: "durable_repl", rule: true, durable: true, windowMs: 500, rate: 1500,
		why: "the feed on a WAL-backed primary with a warm standby, a checkpoint and a restart: group-commit fsync, shipping and recovery do the work"},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef names one metric. BENCHMARK.json carries the same names; the
// smoke test checks the two agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Gate is the bench's own regression bound for the workload-specific
	// end-to-end metrics, which BENCHMARK.json can only list unbounded
	// (see README.md, "Contract"). Zero for everything else.
	Gate float64
}

// endToEnd is BENCHMARK.json's end_to_end list: the metrics every
// workload reports. Their bounds live in BENCHMARK.json alone.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "sat_ops_s", Unit: "ops/s", Better: "higher"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "write_p50_us", Unit: "us", Better: "lower"},
	{Name: "read_point_p50_us", Unit: "us", Better: "lower"},
	{Name: "read_join_p50_us", Unit: "us", Better: "lower"},
	{Name: "read_scan_p50_us", Unit: "us", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// specific are end-to-end metrics that exist on some workloads only (or,
// for fail_ratio, are zero when all is well), which BENCHMARK.json's
// end_to_end list cannot hold. Both runs report them; -compare gates them.
var specific = []metricDef{
	{Name: "derived_lag_p50_us", Unit: "us", Better: "lower", Gate: 0.25},
	{Name: "replica_lag_p50_us", Unit: "us", Better: "lower", Gate: 0.25},
	{Name: "recovery_s", Unit: "s", Better: "lower", Gate: 0.25},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower"}, // absolute limit, see maxFailRatio
}

// maxFailRatio is the share of attempted operations that may fail before a
// run is invalid.
const maxFailRatio = 0.001

func perClass(prefix, unit, better string, classes ...opClass) []metricDef {
	var out []metricDef
	for _, c := range classes {
		out = append(out, metricDef{Name: prefix + "." + classNames[c], Unit: unit, Better: better})
	}
	return out
}

// perLayer is the layer walk: one group per module on the two paths.
var perLayer = func() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	all := []opClass{clsPoint, clsJoin, clsScan, clsUpdate}
	out := []metricDef{
		lo("bench.gen_late_p50_us", "us"), lo("bench.trace_overhead_pct", "%"),

		lo("client.write_p99_us", "us"), lo("client.read_point_p99_us", "us"),
		lo("client.read_join_p99_us", "us"), lo("client.read_scan_p99_us", "us"),
		lo("client.write_service_p50_us", "us"), lo("client.retries_per_kop", "1/kop"),

		lo("server.codec_req_ns", "ns"), lo("server.codec_resp_ns", "ns"),
		lo("server.resp_bytes_per_op", "B"), lo("server.other_us", "us"), lo("server.busy_rejected", "count"),
	}
	out = append(out, perClass("sqlparse.parse_ns", "ns", "lower", all...)...)
	out = append(out, perClass("sqlparse.parse_allocs", "count", "lower", all...)...)
	out = append(out, perClass("query.run_us", "us", "lower", all...)...)
	out = append(out, perClass("query.rows_examined_per_row", "ratio", "lower", clsPoint, clsJoin, clsScan)...)
	out = append(out,
		hi("query.plan_hit_ratio", "ratio"), lo("query.selects_per_op", "ratio"),

		lo("lock.acquire_release_ns", "ns"), lo("lock.acquires_per_op", "ratio"),
		lo("lock.wait_us_per_op", "us"), lo("lock.waits_per_kop", "1/kop"),
		lo("lock.deadlocks", "count"), lo("lock.timeouts", "count"),

		lo("txn.begin_commit_ns.rw", "ns"), lo("txn.begin_commit_ns.ro", "ns"))
	out = append(out, perClass("txn.commit_us", "us", "lower", all...)...)
	out = append(out,
		lo("txn.aborts_per_kop", "1/kop"),

		lo("storage.probe_ns", "ns"), hi("storage.scan_rows_per_s", "rows/s"), lo("storage.update_ns", "ns"),
		lo("storage.versions_retained", "count"), hi("storage.gc_dropped_per_kop", "1/kop"),

		lo("wal.commit_us", "us"), lo("wal.fsyncs_per_kop", "1/kop"), lo("wal.bytes_per_op", "B"),
		hi("wal.group_batch_mean", "ratio"), lo("wal.checkpoint_ms", "ms"), hi("wal.replay_txns_per_s", "1/s"),

		lo("core.evaluate_us", "us"), lo("core.fired_per_op", "ratio"), lo("core.tasks_per_kop", "1/kop"),
		hi("core.merge_ratio", "ratio"), hi("core.rows_per_action", "ratio"), lo("core.action_us", "us"),
		lo("core.derived_lag_p99_us", "us"), lo("core.task_errors", "count"), lo("core.restarts", "count"),

		lo("sched.submit_step_ns", "ns"), lo("sched.release_to_start_p50_us", "us"),
		lo("sched.ready_depth_max", "count"), lo("sched.drain_ms", "ms"),
		lo("sched.shed", "count"), lo("sched.retried", "count"),

		lo("viewgen.tasks_per_kop", "1/kop"), hi("viewgen.merge_ratio", "ratio"),
		lo("viewgen.delta_rows_per_op", "ratio"), lo("viewgen.fallbacks", "count"),
		lo("viewgen.staleness_p50_ms", "ms"),

		lo("repl.shipped_bytes_per_op", "B"), lo("repl.batches_per_kop", "1/kop"), lo("repl.lag_lsn_max", "count"),
		lo("repl.catchup_ms", "ms"), lo("repl.visible_p99_us", "us"), lo("repl.reconnects", "count"),

		lo("runtime.allocs_per_op", "count"), lo("runtime.alloc_bytes_per_op", "B"),
		lo("runtime.gc_pause_ms", "ms"), lo("runtime.heap_inuse_mb", "MB"))
	return out
}()

// benchSpec is BENCHMARK.json, as far as the bench itself reads it: the
// run length, and the direction and bound of every end-to-end metric.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or, when the
// bench is run from inside bench/, from its parent.
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, dir := range []string{".", ".."} {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &s, nil
	}
	return nil, firstErr
}
