package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	strip "github.com/stripdb/strip"
	"github.com/stripdb/strip/client"
)

// handRule is the paper's Figure 3 incremental rule, hand-written: every
// price change is joined to the composites that hold the stock, and the
// matches are handed to `maintain` batched per composite.
const handRule = `create rule maintain_comps on stocks
  when updated price
  if select comp, weight, old.price as old_price, new.price as new_price
     from new, old, comps_list
     where comps_list.symbol = new.symbol and new.execute_order = old.execute_order
     bind as matches
  then execute maintain
  unique on comp
  after %d ms`

// digestTables are the tables whose contents replicas and recovery must
// reproduce; the query lists every column.
var digestTables = []string{
	"select symbol, price from stocks",
	"select comp, symbol, weight from comps_list",
	"select comp, price from comp_prices",
	"select k, v from canary",
}

// actionRun is one execution of the bench-owned maintain action, in engine
// microseconds.
type actionRun struct {
	wait, body int64 // release -> start, start -> return
	rows       int
}

// actionLog collects maintain executions while recording is on (the paced
// segments).
type actionLog struct {
	recording atomic.Bool
	tr        *tracer
	mu        sync.Mutex
	runs      []actionRun
}

func (a *actionLog) take() []actionRun {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.runs
	a.runs = nil
	return out
}

// maintain applies the batched weight*(new-old) differences of one
// composite to comp_prices with one SQL update, as in the paper.
func (a *actionLog) maintain(ctx *strip.ActionContext) error {
	start, wall := ctx.Now(), time.Now()
	m, ok := ctx.Bound("matches")
	if !ok || m.Len() == 0 {
		return nil
	}
	sch := m.Schema()
	ci, wi := sch.ColIndex("comp"), sch.ColIndex("weight")
	oi, ni := sch.ColIndex("old_price"), sch.ColIndex("new_price")
	var diff int64
	for i := 0; i < m.Len(); i++ {
		diff += m.Value(i, wi).Int() * (m.Value(i, ni).Int() - m.Value(i, oi).Int())
	}
	if diff != 0 {
		if _, err := strip.ExecAction(ctx, fmt.Sprintf(
			"update comp_prices set price += %d where comp = '%s'", diff, m.Value(0, ci).Str())); err != nil {
			return err
		}
	}
	if !a.recording.Load() {
		return nil
	}
	end := ctx.Now()
	release := ctx.Task().Release
	a.mu.Lock()
	a.runs = append(a.runs, actionRun{wait: start - release, body: end - start, rows: m.Len()})
	a.mu.Unlock()
	if a.tr.enabled() {
		id := a.tr.newOp()
		a.tr.add(id, 0, spSchedWait, wall.Add(-time.Duration(start-release)*time.Microsecond), wall)
		a.tr.add(id, 0, spAction, wall, time.Now())
	}
	return nil
}

// env is one workload's running system: engine, optional standby, the two
// client connections and their generators.
type env struct {
	w       workloadDef
	schema  *schemaData
	dir     string // scratch directory of a durable workload
	db      *strip.DB
	standby *strip.DB
	view    *strip.ViewInfo
	acts    *actionLog
	conns   []*loadConn
}

// scratchDir makes a fresh directory for data files inside the checkout
// (the benchmark reads and writes nowhere else).
func scratchDir(tag string) (string, error) {
	base := filepath.Join(".bench_build", "data")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, tag+"-")
}

// engineConfig is the primary's configuration: Workers 2 for a 2-core box;
// ShareWindow stays 0 (two connections can never form a shared-scan group).
func engineConfig(dataDir string) strip.Config {
	return strip.Config{Workers: 2, ListenAddr: "127.0.0.1:0", DataDir: dataDir}
}

// setup opens the engine, loads the common schema, installs the workload's
// rule and view, brings up the standby and dials the connections. preArm,
// when set, runs after the load and before any rule exists (the traced run
// walks updates there to price rule evaluation).
func setup(w workloadDef, seed int64, tr *tracer, preArm func(*env) error) (e *env, err error) {
	e = &env{w: w, schema: genSchema(seed), acts: &actionLog{tr: tr}}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	var primaryDir, standbyDir string
	if w.durable {
		if e.dir, err = scratchDir(w.name); err != nil {
			return e, err
		}
		primaryDir, standbyDir = filepath.Join(e.dir, "primary"), filepath.Join(e.dir, "standby")
	}
	if e.db, err = strip.Open(engineConfig(primaryDir)); err != nil {
		return e, err
	}
	for _, sql := range e.schema.loadStatements() {
		if _, err = e.db.Exec(sql); err != nil {
			return e, fmt.Errorf("load: %w", err)
		}
	}
	if w.durable {
		for _, sql := range []string{`create table canary (k text, v int)`, `insert into canary values ('c', 0)`} {
			if _, err = e.db.Exec(sql); err != nil {
				return e, err
			}
		}
	}
	if preArm != nil {
		if err = preArm(e); err != nil {
			return e, err
		}
	}
	if err = e.arm(); err != nil {
		return e, err
	}
	if w.durable {
		e.standby, err = strip.Open(strip.Config{Workers: 2, DataDir: standbyDir, ReplicaOf: e.db.ServerAddr()})
		if err != nil {
			return e, fmt.Errorf("standby: %w", err)
		}
		if _, err = e.catchUp(30 * time.Second); err != nil {
			return e, err
		}
	}
	for c := 0; c < nConns; c++ {
		// The client's own busy retry is off: the bench counts every retry.
		cl, derr := client.Dial(e.db.ServerAddr(), client.Options{BusyRetries: -1})
		if derr != nil {
			return e, derr
		}
		e.conns = append(e.conns, &loadConn{c: cl, gen: newGenerator(seed, c, e.schema), tr: tr})
	}
	return e, nil
}

// arm registers the bench-owned action and creates the rule and the view.
func (e *env) arm() error {
	w := e.w
	if w.rule {
		if err := e.db.RegisterFunc("maintain", e.acts.maintain); err != nil {
			return err
		}
		if _, err := e.db.Exec(fmt.Sprintf(handRule, w.windowMs)); err != nil {
			return fmt.Errorf("hand rule: %w", err)
		}
	}
	if w.view {
		def, err := strip.ParseSelect(definingQuery)
		if err != nil {
			return err
		}
		// The advisor clamps its window to MaxStaleness; an UpdateRate of
		// 1/s keeps its own estimate above any window used here.
		want := max(int64(w.windowMs)*1000, 1)
		opts := strip.ViewOptions{Mode: strip.ViewModeDelta, UpdateRate: 1, MaxStaleness: want}
		if e.view, err = e.db.CreateMaterializedView("comp_view", def, opts); err != nil {
			return fmt.Errorf("view: %w", err)
		}
		if d := e.view.DelayMicros; d != want || e.view.Maintenance != "delta" {
			return fmt.Errorf("view resolved to %s maintenance after %d us, want delta after %d us",
				e.view.Maintenance, d, want)
		}
	}
	return nil
}

// catchUp waits until the standby has applied everything the primary has
// logged, and returns how long that took.
func (e *env) catchUp(limit time.Duration) (time.Duration, error) {
	start := time.Now()
	info, _ := e.db.WalInfo()
	target := info.NextLSN - 1
	for {
		st, _ := e.standby.ReplStatus()
		if st.AppliedLSN >= target && !st.Resyncing {
			return time.Since(start), nil
		}
		if time.Since(start) > limit {
			return 0, fmt.Errorf("standby stuck at lsn %d of %d: %s", st.AppliedLSN, target, st.LastError)
		}
		pause(200 * time.Microsecond)
	}
}

// drain waits until every submitted rule task has finished — none delayed,
// queued or running — and returns how long that took. A running task
// submits its follow-ups before it is counted as finished, so the sum can
// only balance at true quiescence; the counters are not read atomically,
// so two polls in a row must agree.
func (e *env) drain(limit time.Duration) (time.Duration, error) {
	start := time.Now()
	balancedAt := int64(-1)
	for {
		st := e.db.SchedStats()
		switch {
		case st.Submitted != st.Completed+st.Failed+st.Shed+st.Abandoned:
			balancedAt = -1
		case balancedAt == st.Submitted:
			return time.Since(start), nil
		default:
			balancedAt = st.Submitted
		}
		if time.Since(start) > limit {
			return 0, fmt.Errorf("rule tasks still queued after %s", limit)
		}
		pause(200 * time.Microsecond)
	}
}

func (e *env) close() {
	for _, lc := range e.conns {
		lc.c.Close() //nolint:errcheck // teardown
	}
	e.conns = nil
	if e.standby != nil {
		e.standby.Close() //nolint:errcheck // teardown
		e.standby = nil
	}
	if e.db != nil {
		e.db.Close() //nolint:errcheck // teardown
		e.db = nil
	}
	if e.dir != "" {
		os.RemoveAll(e.dir) //nolint:errcheck // scratch data
	}
}

// rows runs a query on an engine through embedded Exec and renders each
// row as one string, sorted.
func rows(db *strip.DB, sql string) ([]string, error) {
	res, err := db.Exec(sql)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sql, err)
	}
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out, nil
}

// digest fingerprints the contents of every table in digestTables.
func digest(db *strip.DB) (string, error) {
	h := sha256.New()
	for _, q := range digestTables {
		rs, err := rows(db, q)
		if err != nil {
			return "", err
		}
		for _, r := range rs {
			h.Write([]byte(r))
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
