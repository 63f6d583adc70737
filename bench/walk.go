package main

import (
	"bytes"
	"fmt"
	"time"

	strip "github.com/stripdb/strip"
	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/cost"
	"github.com/stripdb/strip/internal/index"
	"github.com/stripdb/strip/internal/lock"
	"github.com/stripdb/strip/internal/query"
	"github.com/stripdb/strip/internal/sched"
	"github.com/stripdb/strip/internal/server"
	"github.com/stripdb/strip/internal/sqlparse"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/types"
)

// The layer walk pushes generated statements by hand through each layer's
// public functions, in the order the server runs them, with a span around
// every call. It needs no change to engine code; what it cannot see (the
// session loop, admission, the server's second parse, syscalls) is what
// server.other_us holds.

// walkCounts is how many statements of each class one walk pushes: 2,000
// in all.
var walkCounts = [nClasses]int{clsPoint: 800, clsJoin: 500, clsScan: 200, clsUpdate: 500}

const (
	preArmUpdates = 500    // updates walked before any rule exists
	explainRuns   = 20     // statements per class run under RunExplain
	aloneIters    = 20_000 // iterations of each stand-alone layer loop
)

// stages are the walked calls, in order.
const (
	stCodecReq = iota
	stParse
	stBegin
	stRun
	stCommit
	stCodecResp
	nStages
)

var stageSpan = [nStages]uint8{spCodecReq, spParse, spTxnBegin, spQueryRun, spTxnCommit, spCodecResp}

// walker holds the walk's samples: stage x class -> durations in ns.
type walker struct {
	tr        *tracer
	stage     [nStages][nClasses]sample
	respBytes [nClasses]int64
	unarmed   sample // commit of an update before any rule exists
}

// one pushes a single statement through the layers on an embedded engine.
func (wk *walker) one(db *strip.DB, o op) error {
	var t [nStages + 1]time.Time
	var wire bytes.Buffer
	frame := server.FrameQuery
	if o.class == clsUpdate {
		frame = server.FrameExec
	}

	// Request codec: what the client encodes and the session decodes.
	t[stCodecReq] = time.Now()
	if err := server.WriteFrame(&wire, frame, server.EncodeSQL(o.sql)); err != nil {
		return err
	}
	_, payload, err := server.ReadFrame(&wire)
	if err != nil {
		return err
	}
	sql, err := server.DecodeSQL(payload)
	if err != nil {
		return err
	}

	t[stParse] = time.Now()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return err
	}

	t[stBegin] = time.Now()
	var tx *strip.Txn
	if o.class == clsUpdate {
		tx = db.Begin()
	} else {
		tx = db.BeginReadOnly()
	}

	t[stRun] = time.Now()
	var cols []string
	var rows [][]types.Value
	affected := 0
	switch s := stmt.(type) {
	case *sqlparse.SelectStmt:
		out, err := s.Query.Run(tx, query.TxnResolver{})
		if err != nil {
			tx.Abort() //nolint:errcheck // already failing
			return err
		}
		rows = make([][]types.Value, out.Len())
		for i := range rows {
			rows[i] = out.Row(i)
		}
		cols = make([]string, out.Schema().NumCols())
		for i := range cols {
			cols[i] = out.Schema().Col(i).Name
		}
		out.Retire()
	case *sqlparse.UpdateStmt:
		if affected, err = s.Stmt.Run(tx); err != nil {
			tx.Abort() //nolint:errcheck // already failing
			return err
		}
	default:
		return fmt.Errorf("walk: unexpected statement %T", stmt)
	}

	t[stCommit] = time.Now()
	if err := tx.Commit(); err != nil {
		return err
	}

	// Response codec: what the session encodes and the client decodes.
	t[stCodecResp] = time.Now()
	wire.Reset()
	if cols != nil {
		err = server.WriteFrame(&wire, server.FrameRows, server.EncodeRows(cols, rows))
	} else {
		err = server.WriteFrame(&wire, server.FrameOK, server.EncodeOK(affected))
	}
	if err != nil {
		return err
	}
	wk.respBytes[o.class] += int64(wire.Len())
	typ, payload, err := server.ReadFrame(&wire)
	if err != nil {
		return err
	}
	if typ == server.FrameRows {
		_, _, err = server.DecodeRows(payload)
	} else {
		_, err = server.DecodeOK(payload)
	}
	if err != nil {
		return err
	}
	t[nStages] = time.Now()

	for st := 0; st < nStages; st++ {
		wk.stage[st][o.class] = append(wk.stage[st][o.class], t[st+1].Sub(t[st]).Nanoseconds())
	}
	if wk.tr.enabled() {
		id := wk.tr.newOp()
		parent := wk.tr.add(id, 0, spWalkOp, t[0], t[nStages])
		for st := 0; st < nStages; st++ {
			wk.tr.add(id, parent, stageSpan[st], t[st], t[st+1])
		}
	}
	return nil
}

// preArm walks updates on the loaded engine before any rule exists, so
// that the same walk with rules armed prices rule evaluation at commit.
// It uses generators of its own and then writes the initial prices back:
// the load generators must find the database as they expect it.
func (wk *walker) preArm(e *env) error {
	g := newGenerator(0, 0, e.schema)
	scratch := &walker{}
	touched := map[int]bool{}
	for i := 0; i < preArmUpdates; i++ {
		o := g.update()
		touched[o.stock] = true
		if err := scratch.one(e.db, o); err != nil {
			return err
		}
	}
	wk.unarmed = scratch.stage[stCommit][clsUpdate]
	for st := range touched {
		if _, err := e.db.Exec(fmt.Sprintf("update stocks set price = %d where symbol = '%s'",
			e.schema.price[st], symbol(st))); err != nil {
			return err
		}
	}
	return nil
}

// layers runs the walk and the stand-alone layer loops on the quiesced
// engine and records every walk- and alone-sourced per-layer metric.
func (wk *walker) layers(e *env, res *result, ph *phases) error {
	if _, err := e.drain(time.Minute); err != nil {
		return err
	}
	// The walk continues connection 0's stream, so the generator's view of
	// the stocks it owns stays true for the final check.
	g := e.conns[0].gen
	var ops []op
	for c := opClass(0); c < nClasses; c++ {
		for i := 0; i < walkCounts[c]; i++ {
			if c == clsUpdate {
				ops = append(ops, g.update())
			} else {
				ops = append(ops, g.read(c))
			}
		}
	}
	for _, o := range ops {
		if err := wk.one(e.db, o); err != nil {
			return err
		}
	}

	p50 := sample.p50
	var stageSum int64
	for st := 0; st < nStages; st++ {
		stageSum += p50(wk.stage[st][ph.primary])
	}
	n := walkCounts[ph.primary]
	res.set("server.codec_req_ns", float64(p50(wk.stage[stCodecReq][ph.primary])), n)
	res.set("server.codec_resp_ns", float64(p50(wk.stage[stCodecResp][ph.primary])), n)
	res.set("server.other_us", us(ph.service.pct(0.5)-stageSum), len(ph.service))
	bytesPerOp := 0.0
	for c := range walkCounts {
		bytesPerOp += ph.classShare[c] * float64(wk.respBytes[c]) / float64(walkCounts[c])
	}
	res.set("server.resp_bytes_per_op", bytesPerOp, len(ops))

	byClass := map[opClass][]string{}
	for _, o := range ops {
		byClass[o.class] = append(byClass[o.class], o.sql)
	}
	for c := opClass(0); c < nClasses; c++ {
		name, n := classNames[c], walkCounts[c]
		res.set("sqlparse.parse_ns."+name, float64(p50(wk.stage[stParse][c])), n)
		res.set("sqlparse.parse_allocs."+name, parseAllocs(byClass[c]), n)
		res.set("query.run_us."+name, us(p50(wk.stage[stRun][c])), n)
		res.set("txn.commit_us."+name, us(p50(wk.stage[stCommit][c])), n)
		if c != clsUpdate {
			ratio, err := rowsExamined(e.db, byClass[c][:explainRuns])
			if err != nil {
				return err
			}
			res.set("query.rows_examined_per_row."+name, ratio, explainRuns)
		}
	}
	commit := p50(wk.stage[stCommit][clsUpdate])
	if e.w.durable {
		res.set("wal.commit_us", us(commit), walkCounts[clsUpdate])
	}
	if wk.unarmed != nil {
		res.set("core.evaluate_us", us(commit-p50(wk.unarmed)), walkCounts[clsUpdate])
	}

	res.set("txn.begin_commit_ns.rw", perIter(func() { e.db.Begin().Commit() }), aloneIters)         //nolint:errcheck // empty
	res.set("txn.begin_commit_ns.ro", perIter(func() { e.db.BeginReadOnly().Commit() }), aloneIters) //nolint:errcheck // empty
	wk.alone(e, res)
	return nil
}

// perIter times aloneIters calls of fn and returns ns per call.
func perIter(fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < aloneIters; i++ {
		fn()
	}
	return float64(time.Since(t0).Nanoseconds()) / aloneIters
}

// parseAllocs is the mean number of heap allocations sqlparse.Parse makes
// per statement. The engine is quiescent while this runs.
func parseAllocs(sqls []string) float64 {
	before := readMem()
	for _, s := range sqls {
		sqlparse.Parse(s) //nolint:errcheck // these statements parsed a moment ago
	}
	return float64(readMem().Mallocs-before.Mallocs) / float64(len(sqls))
}

// rowsExamined runs selects with plan capture and returns rows produced by
// the plan's leaves (what storage handed up) per row returned.
func rowsExamined(db *strip.DB, sqls []string) (float64, error) {
	var examined, returned int64
	for _, s := range sqls {
		sel, err := strip.ParseSelect(s)
		if err != nil {
			return 0, err
		}
		tx := db.BeginReadOnly()
		out, plan, err := sel.RunExplain(tx, query.TxnResolver{})
		if err != nil {
			tx.Abort() //nolint:errcheck // already failing
			return 0, err
		}
		returned += int64(max(out.Len(), 1))
		out.Retire()
		tx.Commit() //nolint:errcheck // read-only
		var leaves func(*query.PlanNode)
		leaves = func(n *query.PlanNode) {
			if len(n.Children) == 0 {
				examined += n.ActRows
			}
			for _, c := range n.Children {
				leaves(c)
			}
		}
		leaves(plan)
	}
	return float64(examined) / float64(returned), nil
}

// alone drives the lock manager, a storage table and a scheduler on their
// own, with the workload's rows and keys, outside any engine.
func (wk *walker) alone(e *env, res *result) {
	// lock: what a single-row update takes — a table intent and a record
	// lock — then releases, uncontended.
	locks := lock.New()
	txn := int64(0)
	res.set("lock.acquire_release_ns", perIter(func() {
		txn++
		locks.Acquire(txn, "stocks", lock.IntentExclusive)                                            //nolint:errcheck // uncontended
		locks.Acquire(txn, lock.RecordID{Table: "stocks", ID: uint64(txn % nStocks)}, lock.Exclusive) //nolint:errcheck // uncontended
		locks.ReleaseAll(txn)
	})/2, aloneIters)

	// storage: the stocks table with its hash index.
	tbl := storage.NewTable(catalog.MustSchema("stocks",
		catalog.Column{Name: "symbol", Kind: types.KindString}, catalog.Column{Name: "price", Kind: types.KindInt}))
	recs := make([]*storage.Record, nStocks)
	for i, p := range e.schema.price {
		recs[i], _ = tbl.Insert([]types.Value{types.Str(symbol(i)), types.Int(int64(p))})
	}
	tbl.CreateIndex("symbol", index.Hash) //nolint:errcheck // fresh table
	keys := make([]types.Value, nStocks)
	for i := range keys {
		keys[i] = types.Str(symbol(i))
	}
	i := 0
	res.set("storage.probe_ns", perIter(func() {
		i++
		tbl.IndexLookup("symbol", keys[i%nStocks])
	}), aloneIters)
	res.set("storage.update_ns", perIter(func() {
		i++
		k := i % nStocks
		recs[k], _ = tbl.Update(recs[k], []types.Value{keys[k], types.Int(int64(i))})
	}), aloneIters)
	const scans = 200
	t0 := time.Now()
	seen := 0
	for s := 0; s < scans; s++ {
		tbl.Scan(func(*storage.Record) bool { seen++; return true })
	}
	res.set("storage.scan_rows_per_s", float64(seen)/time.Since(t0).Seconds(), seen)

	// sched: submit one ready task and step it, the per-task floor.
	sc := sched.New(clock.NewReal(), sched.FIFO, cost.NewMeter(), cost.Zero())
	noop := func(*sched.Task) error { return nil }
	res.set("sched.submit_step_ns", perIter(func() {
		sc.Submit(&sched.Task{Fn: noop}) //nolint:errcheck // scheduler is not stopped
		sc.Step()
	}), aloneIters)
}
