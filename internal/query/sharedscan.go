package query

import (
	"fmt"

	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

// Shared query execution (SharedDB-style): a batch of compatible read-only
// SELECTs over the same table executes as ONE snapshot scan pass at a
// single LSN, demultiplexing each visible record to every query's residual
// filters and output builder. With thousands of concurrent readers over the
// same hot derived table, per-query execution repeats the identical
// version-chain walk once per reader; the shared pass does it once per
// gather group. MVCC makes the sharing free of anomalies: every query in
// the group observes exactly the snapshot at the pinned LSN, which is also
// what each would have seen running alone at that instant.
//
// Compatibility is deliberately narrow — single-table FROM, any WHERE /
// projection / aggregation / ORDER BY — because that is the shape of the
// hot serving queries (probes and rollups over derived tables). Joins and
// multi-statement shapes fall back to per-query execution at the caller.
//
// In operator-tree terms the batch materializes one SharedScan record set
// and hangs every query's plan off it: each plan executes normally (filter,
// project/aggregate, sort, limit) with its scan leaf fed the shared records
// and the per-row scan charge paid once for the whole group.

// SharedResult is one query's outcome from a RunShared batch. Exactly one
// of Out/Err is meaningful; a per-query error (bad expression, unknown
// column) does not poison the rest of the batch.
type SharedResult struct {
	Out *storage.TempTable
	Err error
}

// SharedEligible reports whether q has the single-table shape the shared
// path accepts, and over which table.
func SharedEligible(q *Select) (table string, ok bool) {
	if q == nil || len(q.From) != 1 {
		return "", false
	}
	return q.From[0], true
}

// RunShared executes every query in one ScanSnapshot pass over table at a
// single snapshot LSN, returning per-query results plus the LSN all of
// them read at. tx must be a snapshot-reading transaction (BeginReadOnly);
// the whole batch pins tx's begin snapshot, so results are mutually
// consistent: any row one query sees at the LSN, every query sees.
//
// params, when non-nil, runs alongside queries: params[i] holds the values
// for query i's placeholders (statement-cache templates arrive that way).
//
// A batch-level error (unknown table, transaction not snapshot-capable)
// fails the whole call; per-query preparation or evaluation errors land in
// that query's SharedResult.Err only.
func RunShared(tx *txn.Txn, table string, queries []*Select, params [][]types.Value) ([]SharedResult, uint64, error) {
	if len(queries) == 0 {
		return nil, 0, fmt.Errorf("query: empty shared batch")
	}
	mgr := tx.Manager()
	start := mgr.Clock.Now()
	tbl, _, err := TxnResolver{}.Resolve(tx, table)
	if err != nil {
		return nil, 0, err
	}
	snap, me, ok := tx.SnapshotRead()
	if !ok {
		return nil, 0, fmt.Errorf("query: shared execution needs a snapshot-reading transaction")
	}

	// Per-query preparation. Shared plans are built fresh per batch (no
	// plan cache): the scan leaf is the batch's, not the query's, and
	// index probes are deliberately not planned — the batch runs as one
	// scan, and a probe would fragment it back into per-query index
	// walks.
	model := tx.Model()
	paramsOf := func(i int) []types.Value {
		if params == nil {
			return nil
		}
		return params[i]
	}
	results := make([]SharedResult, len(queries))
	plans := make([]*compiled, len(queries))
	srcsOf := make([][]*source, len(queries))
	for i, q := range queries {
		if got, okq := SharedEligible(q); !okq || got != table {
			results[i].Err = fmt.Errorf("query: shared batch query %d is not a single-table select over %q", i, table)
			continue
		}
		tx.Charge(model.StmtSetup)
		tx.Charge(model.OpenCursor)
		srcs := []*source{{name: table, schema: tbl.Schema(), tbl: tbl}}
		c, perr := compileShared(q, srcs)
		if perr != nil {
			if qp := paramsOf(i); len(qp) > 0 {
				// As in runQuery: the message in the statement's literals.
				if _, berr := compileShared(q.WithParams(qp), srcs); berr != nil {
					perr = berr
				}
			}
			results[i].Err = perr
			continue
		}
		plans[i] = c
		srcsOf[i] = srcs
	}

	// One pass: materialize the visible set under the table latch (never
	// recurse or evaluate under it — same discipline as the per-query scan
	// path), then feed the shared record set to every live plan. The scan
	// is charged once per row for the whole group — that amortization is
	// the point of sharing the pass.
	mgr.Query.SnapshotScans.Inc()
	recs := tbl.AppendVisible(nil, snap, me)
	mgr.Query.SharedScanRows.Add(int64(len(recs)))
	tx.Charge(model.ScanRow * float64(len(recs)))

	for i, c := range plans {
		if c == nil {
			continue
		}
		out, _, qerr := c.execute(tx, srcsOf[i], paramsOf(i), recs, false)
		if qerr != nil {
			results[i].Err = qerr
			continue
		}
		results[i].Out = out
		mgr.Query.Selects.Inc()
	}
	mgr.Query.SharedGroups.Inc()
	mgr.Query.SharedQueries.Add(int64(len(queries)))
	mgr.Query.SharedGroupSize.Record(int64(len(queries)))
	mgr.Query.SelectMicros.Record(mgr.Clock.Now() - start)
	return results, snap, nil
}

// compileShared lowers a query for the shared-scan path: a single-level
// plan whose scan leaf the batch feeds, with every non-constant
// predicate residual at level 0.
func compileShared(orig *Select, srcs []*source) (*compiled, error) {
	q, agg, err := lowerQuery(orig, srcs)
	if err != nil {
		return nil, err
	}
	c := &compiled{q: q, agg: agg, nParams: paramCount(q.exprs()...), fixed: true}
	lp := levelPlan{src: 0}
	for _, p := range q.Where {
		if p.maxSource() < 0 {
			c.consts = append(c.consts, lowerPred(p, srcs))
			continue
		}
		lp.resid = append(lp.resid, p)
	}
	lp.filter = lowerPreds(lp.resid, srcs)
	c.levels = []levelPlan{lp}
	return c, c.lowerItems(srcs)
}
