package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	strip "github.com/stripdb/strip"
	"github.com/stripdb/strip/internal/lock"
	"github.com/stripdb/strip/internal/obs"
)

// How a run's measured seconds divide. read_mix spends them all in one
// closed-loop phase. The write workloads spend them in rounds, each round a
// paced, a saturated and a read segment, so that every metric is sampled
// across the whole run and a disturbed stretch of the machine cannot cover
// all of any one of them.
const (
	warmShare  = 1.0 / 8 // warm-up, on top of the measured seconds, discarded
	warmMax    = 2 * time.Second
	pacedShare = 3.0 / 7
	satShare   = 2.0 / 7
	readShare  = 2.0 / 7

	roundSeconds = 7                      // a run has one round per this many measured seconds,
	maxRounds    = 4                      // at most this many, at least one
	leadInExtra  = 200 * time.Millisecond // paced lead-in of a later round, beyond the rule's window
	readWarm     = 250 * time.Millisecond // reads discarded at the start of a read segment

	setupReps      = 5 // set-ups per untraced run; setup_s is their median
	traceShorten   = 3 // the traced run measures a third as long
	canaryInterval = 50 * time.Millisecond
	pollInterval   = 100 * time.Millisecond // 10 Hz queue-depth and replica-lag polls
)

// measured is one metric value with its sample count.
type measured struct {
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// result is what one run of one workload produced.
type result struct {
	Workload   string              `json:"workload"`
	Seed       int64               `json:"seed"`
	Seconds    float64             `json:"seconds"`
	Trace      bool                `json:"trace"`
	Correct    bool                `json:"correct"`
	Attempted  int                 `json:"attempted"`
	Failed     int                 `json:"failed"`
	Violations []string            `json:"violations,omitempty"`
	Metrics    map[string]measured `json:"metrics"`
}

var known = func() map[string]bool {
	m := map[string]bool{}
	for _, list := range [][]metricDef{endToEnd, specific, perLayer} {
		for _, d := range list {
			m[d.Name] = true
		}
	}
	return m
}()

func (r *result) set(name string, v float64, n int) {
	if !known[name] {
		panic("bench: metric " + name + " is not in spec.go")
	}
	r.Metrics[name] = measured{Value: v, N: n}
}

func (r *result) violate(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// count adds a phase's operations to the run's attempted/failed totals.
func (r *result) count(rec *phaseRec) {
	r.Attempted += rec.attempted
	r.Failed += rec.failed
}

// snapshot is the engine's counters at one instant. The cheap fields are
// always filled; the rest only in the traced run.
type snapshot struct {
	cpu time.Duration

	mem        runtime.MemStats
	m, standby strip.Metrics
	hand, view strip.ActionStats
	locks      lock.Stats
	mvcc       strip.MvccStats
}

func (e *env) snap(full bool) *snapshot {
	s := &snapshot{cpu: cpuTime()}
	if !full {
		return s
	}
	s.mem = readMem()
	s.m = e.db.Metrics()
	s.hand = e.db.Stats("maintain")
	if e.view != nil {
		s.view = e.db.Stats(e.view.Action)
	}
	s.locks = e.db.LockStats()
	s.mvcc = e.db.MvccStats()
	if e.standby != nil {
		s.standby = e.standby.Metrics()
	}
	return s
}

// run executes one workload once and returns its metrics. An error means
// the run could not be carried out; a gate violation is reported in the
// result instead.
func run(w workloadDef, seed int64, seconds float64, trace bool, spansPath string) (*result, error) {
	res := &result{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace, Metrics: map[string]measured{}}
	var tr *tracer
	reps := setupReps
	if trace {
		tr = newTracer()
		seconds /= traceShorten
		reps = 1
	}
	wk := &walker{tr: tr}

	var e *env
	var setups []float64
	for i := 0; i < reps; i++ {
		var preArm func(*env) error
		if trace && w.rule {
			preArm = wk.preArm
		}
		t0 := time.Now()
		var err error
		if e, err = setup(w, seed, tr, preArm); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < reps-1 {
			e.close()
		}
	}
	defer func() { e.close() }()
	res.set("setup_s", median(setups), len(setups))

	ph := &phases{e: e, res: res, tr: tr, seconds: seconds}
	var err error
	if w.rate == 0 {
		err = ph.readMix()
	} else {
		err = ph.feed()
	}
	if err != nil {
		return nil, err
	}
	if trace {
		if err := wk.layers(e, res, ph); err != nil {
			return nil, fmt.Errorf("layer walk: %w", err)
		}
	}
	if err := ph.verify(); err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", peakRSSMB(), 1)
	res.set("fail_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), res.Attempted)
	if float64(res.Failed) > maxFailRatio*float64(res.Attempted) {
		res.violate("fail_ratio %d/%d exceeds %g (last error: %v)", res.Failed, res.Attempted, maxFailRatio, ph.lastErr())
	}
	res.Correct = len(res.Violations) == 0
	if tr != nil && spansPath != "" {
		if err := tr.write(spansPath, w.name); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// phases drives the measured part of a run.
type phases struct {
	e       *env
	res     *result
	tr      *tracer
	seconds float64

	// What the layer walk needs from the live phases.
	primary    opClass   // the class server.other_us is computed for
	service    sample    // its send->reply times, sorted
	classShare []float64 // share of each class in the measured ops
}

func (p *phases) dur(share float64) time.Duration {
	return time.Duration(share * p.seconds * float64(time.Second))
}

// warmUp is how long a run warms up before anything is measured.
func (p *phases) warmUp() time.Duration { return min(p.dur(warmShare), warmMax) }

func (p *phases) lastErr() error {
	for _, lc := range p.e.conns {
		if lc.lastErr != nil {
			return lc.lastErr
		}
	}
	return nil
}

// saturate runs a closed loop for d. The traced run splits it into four
// segments with span recording alternately off and on, so one process
// yields both throughputs and their difference is the tracing overhead.
func (p *phases) saturate(next func(*generator) op, d time.Duration) (*phaseRec, time.Duration) {
	loop := func(d time.Duration) (*phaseRec, time.Duration) {
		until := time.Now().Add(d)
		return runPhase(p.e.conns, func(lc *loadConn) { lc.closedLoop(next, until) })
	}
	if p.tr == nil {
		return loop(d)
	}
	total := &phaseRec{}
	var elapsed time.Duration
	var ops, secs [2]float64
	for seg := 0; seg < 4; seg++ {
		p.tr.on.Store(seg%2 == 1)
		rec, el := loop(d / 4)
		total.merge(rec)
		elapsed += el
		ops[seg%2] += float64(rec.acked())
		secs[seg%2] += el.Seconds()
	}
	p.tr.on.Store(true)
	untraced, traced := ops[0]/secs[0], ops[1]/secs[1]
	p.res.set("bench.trace_overhead_pct", 100*(untraced-traced)/untraced, total.acked())
	return total, elapsed
}

// latencies reports the per-class medians (and, traced, the tails) of the
// given segments of the write and the read phase.
func (p *phases) latencies(write, read []*phaseRec) {
	lat := func(recs []*phaseRec, c opClass) (out []sample) {
		for _, r := range recs {
			out = append(out, r.lat[c])
		}
		return out
	}
	p50 := func(name string, segs []sample) {
		v, n := steadyP50(segs)
		p.res.set(name, us(v), n)
	}
	p50("write_p50_us", lat(write, clsUpdate))
	p50("read_point_p50_us", lat(read, clsPoint))
	p50("read_join_p50_us", lat(read, clsJoin))
	p50("read_scan_p50_us", lat(read, clsScan))
	if p.tr == nil {
		return
	}
	tail := func(name string, segs []sample) {
		var s sample
		for _, seg := range segs {
			s = append(s, seg...)
		}
		s = s.sorted()
		p.res.set(name, us(s.pct(tailPct(len(s)))), len(s))
	}
	tail("client.write_p99_us", lat(write, clsUpdate))
	tail("client.read_point_p99_us", lat(read, clsPoint))
	tail("client.read_join_p99_us", lat(read, clsJoin))
	tail("client.read_scan_p99_us", lat(read, clsScan))
	var svc []sample
	for _, r := range write {
		svc = append(svc, r.svc[clsUpdate])
	}
	p50("client.write_service_p50_us", svc)
}

// readMix is the read_mix workload: one closed-loop phase of the mix.
func (p *phases) readMix() error {
	e := p.e
	until := time.Now().Add(p.warmUp())
	runPhase(e.conns, func(lc *loadConn) { lc.closedLoop((*generator).mixed, until) })

	before := e.snap(p.tr != nil)
	main := windowed(e.conns, func() (*phaseRec, time.Duration) {
		return p.saturate((*generator).mixed, p.dur(1))
	})
	after := e.snap(p.tr != nil)
	p.res.count(main.phaseRec)
	if main.acked() == 0 {
		return fmt.Errorf("no operation succeeded: %v", p.lastErr())
	}
	p.res.set("sat_ops_s", main.opsPerSec(), main.acked())
	p.res.set("cpu_us_per_op", main.cpuPerOp(after.cpu-before.cpu), main.acked())
	p.latencies([]*phaseRec{main.phaseRec}, []*phaseRec{main.phaseRec})
	p.noteMix(clsPoint, main.phaseRec)
	if p.tr != nil {
		p.counts(before, after, main.phaseRec)
	}
	return nil
}

// feed is the three write workloads. After a warm-up at the paced rate the
// measured seconds run in rounds: a paced segment; then saturation and the
// drain of what it left queued; then closed-loop reads on the quiescent
// engine, which by then has applied the same updates whatever the window.
func (p *phases) feed() error {
	e, w := p.e, p.e.w
	traced := p.tr != nil
	interval := time.Duration(float64(time.Second) * nConns / float64(w.rate))
	paced := func(d time.Duration) (*phaseRec, time.Duration) {
		n := int(d / interval)
		start := time.Now()
		return runPhase(e.conns, func(lc *loadConn) { lc.openLoop((*generator).update, start, interval, n) })
	}
	// The traced run is one round, so that its counter deltas are taken
	// across one paced segment.
	rounds := min(max(int(p.seconds/roundSeconds), 1), maxRounds)
	if traced {
		rounds = 1
	}
	seg := func(share float64) time.Duration { return p.dur(share) / time.Duration(rounds) }
	window := time.Duration(w.windowMs) * time.Millisecond

	// Side observers of the paced segments: the replica canary and the
	// mid-run checkpoint on the durable workload, the 10 Hz pollers when
	// traced.
	stop := make(chan struct{})
	var side sync.WaitGroup
	var once sync.Once
	halt := func() { once.Do(func() { close(stop) }); side.Wait() }
	defer halt()
	var obsv observers
	if w.durable {
		side.Add(1)
		go func() { defer side.Done(); obsv.canary(e, p.tr, stop) }()
	}
	if traced {
		side.Add(1)
		go func() { defer side.Done(); obsv.poll(e, stop) }()
	}

	var pacedRun, satRun phaseRun
	var writes, reads []*phaseRec
	var before, after *snapshot
	var pacedCPU, drained, caught time.Duration
	for r := 0; r < rounds; r++ {
		// Lead-in, discarded: the run's warm-up, or in a later round long
		// enough for the rule's window to fill again, so that the measured
		// segment sees as many tasks come due as it queues.
		if r == 0 {
			paced(p.warmUp())
		} else {
			paced(window + leadInExtra)
		}
		if w.durable && r == rounds/2 {
			side.Add(1)
			go func() { defer side.Done(); obsv.checkpoint(e, seg(pacedShare)/2, stop) }()
		}
		e.acts.recording.Store(true)
		before = e.snap(traced)
		run := windowed(e.conns, func() (*phaseRec, time.Duration) { return paced(seg(pacedShare)) })
		after = e.snap(traced)
		e.acts.recording.Store(false)
		if run.acked() == 0 {
			return fmt.Errorf("no paced update succeeded: %v", p.lastErr())
		}
		pacedCPU += after.cpu - before.cpu
		pacedRun.add(run)
		writes = append(writes, run.phaseRec)

		// Saturation: what the closed loop sustains, marked down below by the
		// time the engine then needs, beyond the rule's window, to finish the
		// tasks it still has queued and, on the durable workload, for the
		// standby to catch up.
		sat := windowed(e.conns, func() (*phaseRec, time.Duration) {
			return p.saturate((*generator).update, seg(satShare))
		})
		satRun.add(sat)
		d, err := e.drain(time.Minute)
		if err != nil {
			return err
		}
		drained += max(d-window, 0)
		if w.durable {
			c, err := e.catchUp(time.Minute)
			if err != nil {
				return err
			}
			caught += c
		}

		until := time.Now().Add(readWarm)
		runPhase(e.conns, func(lc *loadConn) { lc.closedLoop((*generator).reads, until) })
		until = time.Now().Add(seg(readShare))
		rd, _ := runPhase(e.conns, func(lc *loadConn) { lc.closedLoop((*generator).reads, until) })
		reads = append(reads, rd)
		p.res.count(rd)
	}
	halt()
	rec := pacedRun.phaseRec
	p.res.count(rec)
	p.res.count(satRun.phaseRec)
	p.res.set("cpu_us_per_op", pacedRun.cpuPerOp(pacedCPU), rec.acked())
	p.latencies(writes, reads)
	p.noteMix(clsUpdate, rec)
	p.res.set("sat_ops_s", satRun.opsPerSec()*satRun.elapsed.Seconds()/(satRun.elapsed+drained+caught).Seconds(), satRun.acked())

	runs := e.acts.take()
	lag := make(sample, len(runs))
	for i, r := range runs {
		lag[i] = (r.wait + r.body) * 1000
	}
	lag = lag.sorted()
	p.res.set("derived_lag_p50_us", us(lag.pct(0.5)), len(lag))
	p.res.Failed += obsv.failed
	p.res.Attempted += obsv.attempted
	if w.durable {
		vis := obsv.visible.sorted()
		p.res.set("replica_lag_p50_us", us(vis.pct(0.5)), len(vis))
		if obsv.checkpointErr != nil {
			p.res.violate("checkpoint: %v", obsv.checkpointErr)
		}
	}
	if p.tr == nil {
		return nil
	}

	p.counts(before, after, rec)
	late := rec.late.sorted()
	p.res.set("bench.gen_late_p50_us", us(late.pct(0.5)), len(late))
	wait, body := make(sample, len(runs)), make(sample, len(runs))
	rowsIn := 0
	for i, r := range runs {
		wait[i], body[i] = r.wait*1000, r.body*1000
		rowsIn += r.rows
	}
	wait, body = wait.sorted(), body.sorted()
	p.res.set("core.derived_lag_p99_us", us(lag.pct(tailPct(len(lag)))), len(lag))
	p.res.set("core.action_us", us(body.pct(0.5)), len(body))
	p.res.set("core.rows_per_action", float64(rowsIn)/float64(max(len(runs), 1)), len(runs))
	p.res.set("sched.release_to_start_p50_us", us(wait.pct(0.5)), len(wait))
	p.res.set("sched.ready_depth_max", float64(obsv.readyMax), obsv.polls)
	p.res.set("sched.drain_ms", float64(drained.Microseconds())/1e3, 1)
	if w.durable {
		vis := obsv.visible.sorted()
		p.res.set("repl.visible_p99_us", us(vis.pct(tailPct(len(vis)))), len(vis))
		p.res.set("repl.lag_lsn_max", float64(obsv.lagLSNMax), obsv.polls)
		p.res.set("repl.catchup_ms", float64(caught.Microseconds())/1e3, 1)
		p.res.set("wal.checkpoint_ms", float64(obsv.checkpointTook.Microseconds())/1e3, 1)
	}
	return nil
}

// noteMix remembers what the layer walk needs from the live phases.
func (p *phases) noteMix(primary opClass, rec *phaseRec) {
	p.primary = primary
	p.service = rec.svc[primary].sorted()
	p.classShare = make([]float64, nClasses)
	for c := range p.classShare {
		p.classShare[c] = float64(len(rec.lat[c])) / float64(max(rec.attempted, 1))
	}
}

// counts turns counter deltas over the phase that cpu_us_per_op covers
// into per-layer metrics, per acked operation of that phase.
func (p *phases) counts(a, b *snapshot, rec *phaseRec) {
	ops := float64(rec.acked())
	n := rec.acked()
	ctr := func(name string) float64 { return float64(b.m.Counters[name] - a.m.Counters[name]) }
	hist := func(name string) (sum, count float64) {
		return float64(b.m.Histograms[name].Sum - a.m.Histograms[name].Sum),
			float64(b.m.Histograms[name].Count - a.m.Histograms[name].Count)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	set := func(name string, v float64) { p.res.set(name, v, n) }

	set("client.retries_per_kop", 1000*float64(rec.retries)/ops)
	set("server.busy_rejected", ctr(obs.MServerBusy))
	hits, builds := ctr(obs.MQueryPlanHits), ctr(obs.MQueryPlanBuilds)
	set("query.plan_hit_ratio", ratio(hits, hits+builds))
	set("query.selects_per_op", ctr(obs.MQuerySelects)/ops)

	set("lock.acquires_per_op", float64(b.locks.Acquires-a.locks.Acquires)/ops)
	waitSum, _ := hist(obs.MLockWaitMicros)
	set("lock.wait_us_per_op", waitSum/ops)
	set("lock.waits_per_kop", 1000*float64(b.locks.Waits-a.locks.Waits)/ops)
	set("lock.deadlocks", float64(b.locks.Deadlocks-a.locks.Deadlocks))
	set("lock.timeouts", float64(b.locks.Timeouts-a.locks.Timeouts))
	set("txn.aborts_per_kop", 1000*ctr(obs.MTxnAborted)/ops)

	set("storage.versions_retained", float64(b.mvcc.VersionsRetained))
	set("storage.gc_dropped_per_kop", 1000*float64(b.mvcc.GCDropped-a.mvcc.GCDropped)/ops)

	set("wal.fsyncs_per_kop", 1000*ctr(obs.MWalFsyncs)/ops)
	set("wal.bytes_per_op", ctr(obs.MWalBytes)/ops)
	batchSum, batchN := hist(obs.MWalGroupBatch)
	set("wal.group_batch_mean", ratio(batchSum, batchN))

	hand, view := actionDelta(a.hand, b.hand), actionDelta(a.view, b.view)
	set("core.fired_per_op", hand.Fired/ops)
	set("core.tasks_per_kop", 1000*hand.TasksCreated/ops)
	set("core.merge_ratio", ratio(hand.TasksMerged, hand.TasksCreated+hand.TasksMerged))
	set("core.task_errors", hand.TaskErrors+view.TaskErrors)
	set("core.restarts", hand.Restarts+view.Restarts)
	set("sched.shed", ctr(obs.MSchedShed))
	set("sched.retried", ctr(obs.MSchedRetried))

	set("viewgen.tasks_per_kop", 1000*view.TasksCreated/ops)
	set("viewgen.merge_ratio", ratio(view.TasksMerged, view.TasksCreated+view.TasksMerged))
	set("viewgen.delta_rows_per_op", ctr(obs.MDeltaRows)/ops)
	set("viewgen.fallbacks", ctr(obs.MDeltaFallbacks))
	if p.e.view != nil {
		st := p.e.db.Staleness(p.e.view.Action)
		p.res.set("viewgen.staleness_p50_ms", float64(st.P50)/1e3, int(st.Count))
	}

	if p.e.standby != nil {
		set("repl.shipped_bytes_per_op", ctr(obs.MReplShippedBytes)/ops)
		set("repl.batches_per_kop", 1000*float64(b.standby.Counters[obs.MReplBatches]-a.standby.Counters[obs.MReplBatches])/ops)
	}

	set("runtime.allocs_per_op", float64(b.mem.Mallocs-a.mem.Mallocs)/ops)
	set("runtime.alloc_bytes_per_op", float64(b.mem.TotalAlloc-a.mem.TotalAlloc)/ops)
	set("runtime.gc_pause_ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6)
	set("runtime.heap_inuse_mb", float64(b.mem.HeapInuse)/(1<<20))
}

// ruleActivity is the part of a rule function's counters the layer metrics
// use, as floats ready to divide.
type ruleActivity struct {
	Fired, TasksCreated, TasksMerged, TaskErrors, Restarts float64
}

// actionDelta is a rule function's activity between two snapshots.
func actionDelta(a, b strip.ActionStats) ruleActivity {
	return ruleActivity{
		Fired:        float64(b.Fired - a.Fired),
		TasksCreated: float64(b.TasksCreated - a.TasksCreated),
		TasksMerged:  float64(b.TasksMerged - a.TasksMerged),
		TaskErrors:   float64(b.TaskErrors - a.TaskErrors),
		Restarts:     float64(b.Restarts - a.Restarts),
	}
}

// observers watch the paced segments of a durable or traced run from the
// side. They add no load beyond one canary write every 50 ms.
type observers struct {
	visible           sample // canary: primary ack -> visible on the standby, ns
	attempted, failed int    // canary writes
	checkpointTook    time.Duration
	checkpointErr     error
	readyMax          int
	lagLSNMax         uint64
	polls             int
}

// checkpoint takes one checkpoint after the given delay. A checkpoint that
// loses a deadlock to a writer may be retried.
func (o *observers) checkpoint(e *env, after time.Duration, stop <-chan struct{}) {
	select {
	case <-stop:
		return
	case <-time.After(after):
	}
	t0 := time.Now()
	for attempt := 0; attempt < 3; attempt++ {
		if o.checkpointErr = e.db.Checkpoint(); o.checkpointErr == nil {
			break
		}
	}
	o.checkpointTook = time.Since(t0)
}

// canary writes a fresh value on the primary every 50 ms and polls the
// standby until a read there returns it.
func (o *observers) canary(e *env, tr *tracer, stop <-chan struct{}) {
	tick := time.NewTicker(canaryInterval)
	defer tick.Stop()
	for v := 1; ; v++ {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		if !e.acts.recording.Load() {
			continue // replica visibility is sampled in the paced segments only
		}
		o.attempted++
		if _, err := e.db.Exec(fmt.Sprintf("update canary set v = %d where k = 'c'", v)); err != nil {
			o.failed++
			continue
		}
		acked := time.Now()
		for deadline := acked.Add(5 * time.Second); ; {
			res, err := e.standby.Exec("select v from canary where k = 'c'")
			if err == nil && len(res.Rows) == 1 && res.Rows[0][0].Int() == int64(v) {
				break
			}
			if time.Now().After(deadline) {
				o.failed++
				break
			}
			pause(100 * time.Microsecond)
		}
		seen := time.Now()
		o.visible = append(o.visible, seen.Sub(acked).Nanoseconds())
		if tr.enabled() {
			tr.add(tr.newOp(), 0, spReplVisible, acked, seen)
		}
	}
}

// poll samples the ready-queue depth and the standby's LSN lag at 10 Hz.
func (o *observers) poll(e *env, stop <-chan struct{}) {
	tick := time.NewTicker(pollInterval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		o.polls++
		if _, ready := e.db.PendingTasks(); ready > o.readyMax {
			o.readyMax = ready
		}
		if e.standby != nil {
			if st, ok := e.standby.ReplStatus(); ok && st.LagLSN > o.lagLSNMax {
				o.lagLSNMax = st.LagLSN
			}
		}
	}
}

// verify checks every correctness gate after the system has quiesced.
func (p *phases) verify() error {
	e, res := p.e, p.res
	if _, err := e.drain(time.Minute); err != nil {
		return err
	}

	// Every acked update is present: each connection's last acked price of
	// every stock it owns is what the table holds.
	got, err := e.db.Exec("select symbol, price from stocks")
	if err != nil {
		return err
	}
	price := make(map[string]int64, len(got.Rows))
	for _, r := range got.Rows {
		price[r[0].Str()] = r[1].Int()
	}
	if len(price) != nStocks {
		res.violate("stocks has %d rows, want %d", len(price), nStocks)
	}
	for _, lc := range e.conns {
		for _, st := range lc.gen.own {
			if !lc.gen.dirty[st] && price[symbol(st)] != int64(lc.gen.cur[st]) {
				res.violate("stock %s is %d, last acked update wrote %d", symbol(st), price[symbol(st)], lc.gen.cur[st])
				break
			}
		}
	}

	// Derived data equals its defining query, exactly.
	want, err := rows(e.db, definingQuery)
	if err != nil {
		return err
	}
	derived := map[string]bool{"comp_prices": e.w.rule, "comp_view": e.w.view}
	for table, kept := range derived {
		if !kept {
			continue
		}
		have, err := rows(e.db, "select comp, price from "+table)
		if err != nil {
			return err
		}
		if d := firstDiff(want, have); d != "" {
			res.violate("%s differs from its defining query: %s", table, d)
		}
	}

	st := e.db.SchedStats()
	if st.Shed != 0 {
		res.violate("sched.shed = %d, want 0", st.Shed)
	}
	m := e.db.Metrics()
	if n := m.Counters[obs.MDeltaFallbacks]; n != 0 {
		res.violate("viewgen.fallbacks = %d, want 0", n)
	}
	taskErrs := e.db.Stats("maintain").TaskErrors
	if e.view != nil {
		taskErrs += e.db.Stats(e.view.Action).TaskErrors
	}
	res.Failed += int(taskErrs)
	if e.w.durable {
		return p.verifyDurable()
	}
	return nil
}

// verifyDurable checks the standby against the primary, then restarts the
// primary from its data directory and checks nothing was lost.
func (p *phases) verifyDurable() error {
	e, res := p.e, p.res
	if _, err := e.catchUp(time.Minute); err != nil {
		return err
	}
	before, err := digest(e.db)
	if err != nil {
		return err
	}
	onStandby, err := digest(e.standby)
	if err != nil {
		return err
	}
	if onStandby != before {
		res.violate("standby digest %s differs from primary %s", onStandby[:12], before[:12])
	}
	st, _ := e.standby.ReplStatus()
	if st.Reconnects != 0 {
		res.violate("repl.reconnects = %d, want 0", st.Reconnects)
	}
	if p.tr != nil {
		res.set("repl.reconnects", float64(st.Reconnects), 1)
	}

	for _, lc := range e.conns {
		lc.c.Close() //nolint:errcheck // about to stop the server
	}
	e.standby.Close() //nolint:errcheck // verified above
	e.standby = nil
	if err := e.db.Close(); err != nil {
		return fmt.Errorf("close primary: %w", err)
	}
	t0 := time.Now()
	if e.db, err = strip.Open(engineConfig(filepath.Join(e.dir, "primary"))); err != nil {
		return fmt.Errorf("reopen primary: %w", err)
	}
	if err := e.arm(); err != nil {
		return fmt.Errorf("re-register rule: %w", err)
	}
	after, err := digest(e.db)
	if err != nil {
		return err
	}
	res.set("recovery_s", time.Since(t0).Seconds(), 1)
	if after != before {
		res.violate("digest after restart %s differs from %s before close", after[:12], before[:12])
	}
	if p.tr != nil {
		rec := e.db.LastRecovery()
		res.set("wal.replay_txns_per_s", float64(rec.ReplayedTxns)/(float64(max(rec.DurationMicros, 1))/1e6), rec.ReplayedTxns)
	}
	return nil
}

// firstDiff describes the first difference between two sorted row lists.
func firstDiff(want, have []string) string {
	for i := 0; i < len(want) || i < len(have); i++ {
		switch {
		case i >= len(have):
			return fmt.Sprintf("missing %q", want[i])
		case i >= len(want):
			return fmt.Sprintf("unexpected %q", have[i])
		case want[i] != have[i]:
			return fmt.Sprintf("want %q, have %q", want[i], have[i])
		}
	}
	return ""
}
