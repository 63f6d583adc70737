package obs

import (
	"fmt"
	"io"
	"sort"
)

// Canonical metric names. Per-function instruments append "." + function
// (see ForFunc).
const (
	MTxnCommitted    = "txn.committed"
	MTxnAborted      = "txn.aborted"
	MTxnCommitMicros = "txn.commit_micros"
	MTxnAbortMicros  = "txn.abort_micros"

	MLockAcquires       = "lock.acquires"
	MLockWaits          = "lock.waits"
	MLockDeadlocks      = "lock.deadlocks"
	MLockWaitMicros     = "lock.wait_micros"
	MLockTimeouts       = "lock.wait_timeouts"
	MLockDetectorRuns   = "lock.detector_runs"
	MLockDetectorCycles = "lock.detector_cycles"
	MLockRecordAcquires = "lock.record_acquires"
	MLockEscalations    = "lock.escalations"
	MLockShards         = "lock.shards"
	// MLockTimeoutAborts counts waits aborted with ErrWaitTimeout after
	// exceeding the manager's max-wait cap (SetMaxWait).
	MLockTimeoutAborts = "lock.timeout_aborts"

	MSchedSubmitted      = "sched.submitted"
	MSchedCompleted      = "sched.completed"
	MSchedFailed         = "sched.failed"
	MSchedQueueReady     = "sched.queue_ready"
	MSchedQueueDelayed   = "sched.queue_delayed"
	MSchedReleaseToStart = "sched.release_to_start_micros"
	MSchedRunMicros      = "sched.run_micros"
	MSchedReleaseBatch   = "sched.release_batch"
	// MSchedShed counts tasks dropped by overload control; MSchedAbandoned
	// counts tasks dropped by Stop teardown; MSchedRetried counts
	// transient-failure resubmissions; MSchedPanics counts panics that
	// escaped a task body. Together with completed/failed they partition
	// task outcomes so shedding is never conflated with errors.
	MSchedShed      = "sched.shed"
	MSchedAbandoned = "sched.abandoned"
	MSchedRetried   = "sched.retried"
	MSchedPanics    = "sched.panics"
	// MSchedLagMicros gauges the queueing lag of the most recently dequeued
	// task; MSchedWidenPct gauges the adaptive batching widen factor (100 =
	// no widening).
	MSchedLagMicros = "sched.lag_micros"
	MSchedWidenPct  = "sched.widen_pct"

	MQuerySelects      = "query.selects"
	MQuerySelectMicros = "query.select_micros"
	// MQueryPlanBuilds counts full plan compilations (clone, resolve,
	// cost-based join ordering); MQueryPlanHits counts runs that reused a
	// cached immutable plan. Both count the queries UPDATE and DELETE find
	// their rows with; MQuerySelects counts SELECTs only. A healthy
	// steady-state workload is nearly all hits.
	MQueryPlanBuilds = "query.plan_builds"
	MQueryPlanHits   = "query.plan_hits"
	// MQueryPlanFeedbackRebuilds counts cached plans invalidated by
	// selectivity feedback: the executor's actual row counts drifted far
	// enough from the planner's estimate, repeatedly, that the next run
	// re-planned from fresh statistics.
	MQueryPlanFeedbackRebuilds = "query.plan_feedback_rebuilds"

	// delta.* instruments incremental (delta-plan) view maintenance.
	// MDeltaApplied counts action runs that maintained their derived
	// table from transition-table deltas; MDeltaRows counts the
	// transition rows those runs consumed; MDeltaFallbacks counts runs
	// that fell back to a full recompute because a consistency check
	// tripped while applying deltas.
	MDeltaApplied   = "delta.applied"
	MDeltaRows      = "delta.rows"
	MDeltaFallbacks = "delta.fallbacks"

	MWalAppends          = "wal.appends"
	MWalBytes            = "wal.bytes"
	MWalFsyncs           = "wal.fsyncs"
	MWalFsyncMicros      = "wal.fsync_micros"
	MWalGroupBatch       = "wal.group_batch"
	MWalCommitStall      = "wal.commit_stall_micros"
	MWalLingers          = "wal.lingers"
	MWalLingersFutile    = "wal.lingers_futile"
	MWalLingerMicros     = "wal.linger_micros"
	MWalExpectedCohort   = "wal.expected_cohort"
	MWalCheckpoints      = "wal.checkpoints"
	MWalCheckpointMicros = "wal.checkpoint_micros"
	MWalRecoveredTxns    = "wal.recovered_txns"
	MWalRecoveredOps     = "wal.recovered_ops"
	MWalRecoveryMicros   = "wal.recovery_micros"
	MWalTornTails        = "wal.torn_tails"

	MTxnReadOnly        = "txn.readonly"
	MMvccSnapshots      = "mvcc.snapshots"
	MMvccSnapshotScans  = "mvcc.snapshot_scans"
	MMvccSnapshotProbes = "mvcc.snapshot_probes"
	MMvccGCRuns         = "mvcc.gc_runs"
	MMvccGCDropped      = "mvcc.gc_dropped"
	// MMvccVersionsRetained gauges superseded/tombstoned versions retained
	// for snapshot readers; MMvccSnapshotAge gauges the LSN distance between
	// the newest commit and the oldest active snapshot (both set at GC).
	MMvccVersionsRetained = "mvcc.versions_retained"
	MMvccSnapshotAge      = "mvcc.snapshot_age_lsn"

	MActionFired         = "action.fired"
	MActionTasksCreated  = "action.tasks_created"
	MActionTasksMerged   = "action.tasks_merged"
	MActionRowsMerged    = "action.rows_merged"
	MActionTasksRun      = "action.tasks_run"
	MActionTaskErrors    = "action.task_errors"
	MActionRestarts      = "action.restarts"
	MActionQueueMicros   = "action.queue_micros"
	MActionWorkMicros    = "action.work_micros"
	MActionLatencyMicros = "action.latency_micros"
	MActionMergeRows     = "action.merge_rows"
	// MActionShed counts firings/tasks dropped by overload shedding (the
	// derived data stays stale until a younger task recomputes it);
	// MActionQuarantined counts firings dropped while the function's
	// circuit breaker was open.
	MActionShed        = "action.shed"
	MActionQuarantined = "action.quarantined"

	// server.* instruments the stripd network surface: connection and
	// session lifecycle, per-frame traffic, and admission-control outcomes
	// (busy sheds, auth rejections, drain rejections, reaped idle
	// transactions).
	MServerConns        = "server.connections"
	MServerActive       = "server.active_sessions"
	MServerFrames       = "server.frames"
	MServerQueries      = "server.queries"
	MServerExecs        = "server.execs"
	MServerTxnBegins    = "server.txn_begins"
	MServerBusy         = "server.busy_rejected"
	MServerAuthFail     = "server.auth_failures"
	MServerBadFrames    = "server.bad_frames"
	MServerTxnsReaped   = "server.txns_reaped"
	MServerDrainRejects = "server.drain_rejected"
	MServerQueryMicros  = "server.query_micros"

	// repl.* instruments WAL-shipping replication. On a follower,
	// MReplLagLSN gauges primary-LSN minus applied-LSN and MReplLagMs
	// gauges wall-clock staleness of the last received batch; both feed
	// db.Staleness("repl"); MReplUnsyncedBytes gauges the applied frames its
	// log has written but not yet fsynced and MReplLogSyncs counts the
	// fsyncs that caught up. Shipper-side counters account frames/bytes
	// shipped to followers.
	MReplLagLSN       = "repl.lag_lsn"
	MReplLagMs        = "repl.lag_ms"
	MReplBatches      = "repl.batches"
	MReplHeartbeats   = "repl.heartbeats"
	MReplApplied      = "repl.applied_records"
	MReplBytes        = "repl.bytes_applied"
	MReplReconnects   = "repl.reconnects"
	MReplResyncs      = "repl.resyncs"
	MReplFenced       = "repl.fenced"
	MReplLagRejects   = "repl.lag_rejects"
	MReplStreams      = "repl.streams"
	MReplShippedBytes = "repl.shipped_bytes"
	MReplShippedSnaps = "repl.shipped_snapshots"
	MReplUnsynced     = "repl.unsynced_bytes"
	MReplLogSyncs     = "repl.log_syncs"

	// storage.* self-validation: MStorageIndexCorrupt counts index probes
	// whose returned row failed key re-verification (see the
	// IndexCorruptRow fault point).
	MStorageIndexCorrupt = "storage.index_corruptions"
)

// ForFunc scopes a per-function metric name: ForFunc(MActionFired, "f") ==
// "action.fired.f".
func ForFunc(base, function string) string { return base + "." + function }

// Snapshot is a structured point-in-time view of every instrument in a
// registry. It marshals directly to JSON.
type Snapshot struct {
	// AtMicros is the engine time the snapshot was taken.
	AtMicros   int64                        `json:"at_micros"`
	Counters   map[string]int64             `json:"counters"`
	Floats     map[string]float64           `json:"floats,omitempty"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
	// Staleness is keyed by user function / materialized-view action name.
	Staleness map[string]StalenessSnapshot `json:"staleness"`
	// Trace reports the event ring's accounting, so overflow (dropped
	// events) is visible rather than silent.
	Trace TraceStats `json:"trace"`
}

// TraceStats summarizes the trace ring: how much was emitted, how much the
// ring still holds, and how many events wrap-around has destroyed.
type TraceStats struct {
	Emitted  uint64 `json:"emitted"`
	Dropped  int64  `json:"dropped"`
	Retained int    `json:"retained"`
	Capacity int    `json:"capacity"`
}

// Snapshot captures every instrument at engine time now.
func (r *Registry) Snapshot(now int64) Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		AtMicros:   now,
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
		Staleness:  make(map[string]StalenessSnapshot, len(r.stales)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	if len(r.floats) > 0 {
		s.Floats = make(map[string]float64, len(r.floats))
		for name, f := range r.floats {
			s.Floats[name] = f.Load()
		}
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	for name, st := range r.stales {
		s.Staleness[name] = st.Snapshot(now)
	}
	s.Trace = TraceStats{
		Emitted:  r.tracer.Emitted(),
		Dropped:  r.tracer.Dropped(),
		Retained: r.tracer.Len(),
		Capacity: r.tracer.Cap(),
	}
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WriteText renders the snapshot as an aligned human-readable report.
func (s Snapshot) WriteText(w io.Writer) {
	fmt.Fprintf(w, "metrics @ %d µs\n", s.AtMicros)
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, k := range sortedKeys(s.Counters) {
			fmt.Fprintf(w, "  %-40s %12d\n", k, s.Counters[k])
		}
	}
	if len(s.Floats) > 0 {
		fmt.Fprintln(w, "totals:")
		for _, k := range sortedKeys(s.Floats) {
			fmt.Fprintf(w, "  %-40s %14.1f\n", k, s.Floats[k])
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, k := range sortedKeys(s.Gauges) {
			fmt.Fprintf(w, "  %-40s %12d\n", k, s.Gauges[k])
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintln(w, "histograms (µs):")
		for _, k := range sortedKeys(s.Histograms) {
			h := s.Histograms[k]
			fmt.Fprintf(w, "  %-40s n=%-8d mean=%-10.1f p50=%-8d p95=%-8d p99=%-8d max=%d\n",
				k, h.Count, h.Mean, h.P50, h.P95, h.P99, h.Max)
		}
	}
	if len(s.Staleness) > 0 {
		fmt.Fprintln(w, "staleness (µs):")
		for _, k := range sortedKeys(s.Staleness) {
			st := s.Staleness[k]
			fmt.Fprintf(w, "  %-40s current=%-8d max=%-8d pending=%-4d n=%-8d p50=%-8d p95=%-8d p99=%d\n",
				k, st.Current, st.Max, st.Pending, st.Count, st.P50, st.P95, st.P99)
		}
	}
	fmt.Fprintf(w, "trace: emitted=%d retained=%d/%d dropped=%d\n",
		s.Trace.Emitted, s.Trace.Retained, s.Trace.Capacity, s.Trace.Dropped)
}
