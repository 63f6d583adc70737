package server

import (
	"sync"
	"time"

	"github.com/stripdb/strip/internal/query"
	"github.com/stripdb/strip/internal/sqlparse"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/types"
)

// gatherer batches compatible out-of-transaction QUERY frames onto shared
// snapshot scans. The first query for a table opens a gather window
// (Config.ShareWindow); everything arriving for that table inside the
// window joins its group, and when the window closes the whole group runs
// as ONE ScanSnapshot pass at a single LSN (query.RunShared), each session
// receiving its own demultiplexed result. Queries the shared path cannot
// take — joins, sharing disabled — fall back to ordinary per-query
// execution, as does an entire group on a batch-level failure.
type gatherer struct {
	srv    *Server
	window time.Duration

	mu     sync.Mutex
	groups map[string]*gatherGroup
}

type gatherGroup struct {
	reqs []*gatherReq
}

type gatherReq struct {
	sel    *sqlparse.SelectStmt
	params []types.Value
	ch     chan gatherResp
}

type gatherResp struct {
	res *Result
	err error
}

func newGatherer(srv *Server) *gatherer {
	return &gatherer{srv: srv, window: srv.cfg.ShareWindow, groups: make(map[string]*gatherGroup)}
}

// query runs one out-of-transaction SELECT, shared when possible.
func (g *gatherer) query(sel *sqlparse.SelectStmt, params []types.Value) (*Result, error) {
	table, eligible := query.SharedEligible(sel.Query)
	if !eligible || g.window <= 0 {
		g.srv.m.sharedFallbacks.Inc()
		return g.srv.be.Exec(sel, params)
	}
	req := &gatherReq{sel: sel, params: params, ch: make(chan gatherResp, 1)}
	g.mu.Lock()
	grp := g.groups[table]
	if grp == nil {
		grp = &gatherGroup{}
		g.groups[table] = grp
		time.AfterFunc(g.window, func() { g.flush(table) })
	}
	grp.reqs = append(grp.reqs, req)
	g.mu.Unlock()
	resp := <-req.ch
	return resp.res, resp.err
}

// flush closes a table's gather window and runs its group as one shared
// snapshot pass.
func (g *gatherer) flush(table string) {
	g.mu.Lock()
	grp := g.groups[table]
	delete(g.groups, table)
	g.mu.Unlock()
	if grp == nil || len(grp.reqs) == 0 {
		return
	}

	tx := g.srv.be.BeginReadOnly()
	qs := make([]*query.Select, len(grp.reqs))
	params := make([][]types.Value, len(grp.reqs))
	for i, r := range grp.reqs {
		qs[i], params[i] = r.sel.Query, r.params
	}
	results, _, err := query.RunShared(tx, table, qs, params)
	tx.Commit() //nolint:errcheck // read-only commit releases the snapshot
	if err != nil {
		// Batch-level failure (e.g. table dropped between parse and run):
		// every member falls back to per-query execution.
		for _, r := range grp.reqs {
			g.srv.m.sharedFallbacks.Inc()
			res, ferr := g.srv.be.Exec(r.sel, r.params)
			r.ch <- gatherResp{res: res, err: ferr}
		}
		return
	}
	for i, r := range grp.reqs {
		if results[i].Err != nil {
			// Per-query errors (unknown column, bad expression) would fail
			// standalone execution identically; deliver them as-is.
			r.ch <- gatherResp{err: results[i].Err}
			continue
		}
		r.ch <- gatherResp{res: resultFromTemp(results[i].Out)}
	}
}

// resultFromTemp copies a temp table into a wire-ready Result and retires
// the temp.
func resultFromTemp(tt *storage.TempTable) *Result {
	sch := tt.Schema()
	cols := make([]string, sch.NumCols())
	for i := range cols {
		cols[i] = sch.Col(i).Name
	}
	rows := tt.Rows()
	tt.Retire()
	return &Result{Columns: cols, Rows: rows}
}
