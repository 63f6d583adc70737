package ptabench

import (
	"fmt"
	"time"

	strip "github.com/stripdb/strip"
	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/feed"
	"github.com/stripdb/strip/internal/obs"
	"github.com/stripdb/strip/internal/types"
)

// RunResult is one experiment point: a (variant, delay) pair replayed over
// the full trace.
type RunResult struct {
	Variant  Variant
	DelaySec float64

	Updates int
	// Nr is the number of recompute transactions run (Figures 10 and 13).
	Nr int64
	// TasksCreated / TasksMerged split rule firings into new tasks vs
	// batched appends.
	TasksCreated int64
	TasksMerged  int64
	// CPUUtil is the fraction of (virtual) CPU spent maintaining the view:
	// everything charged beyond the base update transactions, divided by
	// the trace duration (Figures 9 and 12).
	CPUUtil float64
	// TotalUtil includes the base update transactions.
	TotalUtil float64
	// MeanRecomputeMicros is the mean recompute transaction length
	// excluding queueing (Figures 11 and 14).
	MeanRecomputeMicros float64
	// MeanQueueMicros is the mean wait between release and start.
	MeanQueueMicros float64
	// P50/P95/P99ActionMicros summarize the end-to-end action latency span
	// (trigger commit → recompute commit, virtual time): the delay window
	// plus queueing.
	P50ActionMicros int64
	P95ActionMicros int64
	P99ActionMicros int64
	// MaxStalenessMicros is the largest derived-data staleness observed at
	// any recompute commit — the paper's timeliness axis.
	MaxStalenessMicros int64
	// P95StalenessMicros is the 95th-percentile closing staleness.
	P95StalenessMicros int64
	// RealSeconds is the wall-clock time of the replay on this machine.
	RealSeconds float64
	Errors      int64
	Restarts    int64
}

// String renders one row for reports.
func (r RunResult) String() string {
	return fmt.Sprintf("%-26s delay=%.1fs util=%6.2f%% N_r=%-8d len=%9.3fms merged=%d",
		r.Variant, r.DelaySec, r.CPUUtil*100, r.Nr, r.MeanRecomputeMicros/1000, r.TasksMerged)
}

// Run replays the trace against a fresh PTA database with one rule variant
// installed, on the virtual clock, and reports the measurements.
func Run(wcfg WorkloadConfig, tr *feed.Trace, v Variant, delaySec float64) (RunResult, error) {
	db := strip.MustOpen(strip.Config{Virtual: true})
	if _, err := Setup(db, tr, wcfg); err != nil {
		return RunResult{}, err
	}
	fname, err := Install(db, v, clock.FromSeconds(delaySec))
	if err != nil {
		return RunResult{}, err
	}
	db.ResetMeter()
	db.ResetStats()

	start := time.Now()
	if err := Replay(db, tr); err != nil {
		return RunResult{}, err
	}
	real := time.Since(start)

	model := db.Model()
	updates := len(tr.Quotes)
	base := model.SimpleUpdateCost() * float64(updates)
	total := db.Meter()
	dur := clock.Seconds(tr.Config.Duration) * 1e6 // micros

	st := db.Stats(fname)
	res := RunResult{
		Variant:      v,
		DelaySec:     delaySec,
		Updates:      updates,
		Nr:           st.TasksRun,
		TasksCreated: st.TasksCreated,
		TasksMerged:  st.TasksMerged,
		CPUUtil:      (total - base) / dur,
		TotalUtil:    total / dur,
		RealSeconds:  real.Seconds(),
		Errors:       st.TaskErrors,
		Restarts:     st.Restarts,
	}
	if st.TasksRun > 0 {
		res.MeanRecomputeMicros = st.WorkMicros / float64(st.TasksRun)
		res.MeanQueueMicros = float64(st.QueueMicros) / float64(st.TasksRun)
	}
	snap := db.Metrics()
	if h, ok := snap.Histograms[obs.ForFunc(obs.MActionLatencyMicros, fname)]; ok {
		res.P50ActionMicros = h.P50
		res.P95ActionMicros = h.P95
		res.P99ActionMicros = h.P99
	}
	if st, ok := snap.Staleness[fname]; ok {
		res.MaxStalenessMicros = st.Max
		res.P95StalenessMicros = st.P95
	}
	return res, nil
}

// Replay feeds the trace's quotes through update transactions in virtual
// time, interleaved with rule tasks as their release times arrive, then
// drains remaining tasks. One update transaction per price change
// (paper §4.3).
func Replay(db *strip.DB, tr *feed.Trace) error {
	symbols := make([]types.Value, tr.Config.NumStocks)
	for i := range symbols {
		symbols[i] = types.Str(feed.Symbol(i))
	}
	for i := range tr.Quotes {
		q := &tr.Quotes[i]
		// Run tasks whose release times precede this quote.
		for {
			ts, ok := db.NextTaskTime()
			if !ok || ts > q.Time {
				break
			}
			db.AdvanceTo(ts)
			if db.RunReady() == 0 {
				break
			}
		}
		db.AdvanceTo(q.Time)
		if err := applyQuote(db, symbols[q.Stock], q.Price); err != nil {
			return fmt.Errorf("ptabench: quote %d: %w", i, err)
		}
	}
	// Drain: run everything still queued or delayed.
	for {
		ts, ok := db.NextTaskTime()
		if !ok {
			return nil
		}
		db.AdvanceTo(ts)
		db.RunReady()
	}
}

// applyQuote runs the base update transaction for one price change. The
// explicit charges complete Table 1's simple-update path (task shell and
// cursor open/fetch/close around the engine-charged lock/update/commit),
// so one update costs exactly SimpleUpdateCost (172 µs) before rule
// processing.
func applyQuote(db *strip.DB, symbol types.Value, price float64) error {
	m := db.Model()
	db.Charge(m.BeginTask + m.OpenCursor + m.FetchCursor + m.CloseCursor + m.EndTask)
	tx := db.Begin()
	tbl, err := tx.WriteTable("stocks")
	if err != nil {
		return err
	}
	recs, ok := tbl.IndexLookup("symbol", symbol)
	if !ok || len(recs) != 1 {
		tx.Abort() //nolint:errcheck
		return fmt.Errorf("stock %v: %d records", symbol, len(recs))
	}
	if _, err := tx.Update("stocks", recs[0], []types.Value{symbol, types.Float(price)}); err != nil {
		tx.Abort() //nolint:errcheck
		return err
	}
	return tx.Commit()
}
