package query

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/query/plan"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

// compiled is a planned, resolved, immutable form of a Select. One
// compiled plan is shared by every run whose source signature matches
// (see sigMatch); runs keep all mutable state in their own exec, so a
// plan can execute concurrently from many transactions.
type compiled struct {
	q      *Select // private resolved clone (star expanded)
	agg    bool
	levels []levelPlan // execution order
	consts []lowPred   // predicates over no source, checked once per run
	// nParams is how many parameters a run must supply: one past the
	// highest placeholder in the query.
	nParams int

	// The select list as the row loop runs it. A projection evaluates
	// items; an aggregation folds aggs per group and fills each remaining
	// (grouped-column) item i from position repKey[i] of the group's key,
	// built from groupBy.
	out     *catalog.Schema // shared by every run's result table
	names   []string        // out's column names
	order   []int           // out's columns ORDER BY sorts on
	items   []lowered
	aggs    []aggSpec
	groupBy []lowered
	repKey  []int
	// estRows/estCost are the planner's whole-query estimates.
	estRows float64
	estCost float64
	sig     []srcSig

	// Selectivity feedback. Every run reports its actual matched-row
	// count through noteActual; when the act/est ratio drifts past
	// driftThreshold for driftLimit consecutive runs the plan marks
	// itself stale, and the next ensureCompiled re-plans from fresh
	// statistics (query.plan_feedback_rebuilds). driftLimit is larger on
	// plans that were themselves feedback rebuilds, bounding thrash when
	// the data is simply skewed beyond what the stats can express.
	drift      atomic.Int32
	stale      atomic.Bool
	driftLimit int32
}

// Feedback tuning: a plan is considered drifted when actual rows differ
// from the estimate by more than driftThreshold× in either direction
// (ignoring runs where both are below driftFloor rows, which a single
// probe could flip), and goes stale after driftLimit consecutive
// drifted runs.
const (
	driftThreshold       = 4.0
	driftFloor           = 8
	defaultDriftLimit    = 3
	rebuiltPlanDriftBias = 8 // rebuilt plans tolerate 8× more drift runs
)

// noteActual folds one run's actual matched-row count into the plan's
// drift state. Runs share the plan, so a run that finds no drift to reset
// writes nothing: concurrent runs of a settled plan leave its cache line
// shared.
func (c *compiled) noteActual(act int64) {
	if c.stale.Load() {
		return
	}
	est := c.estRows
	r := max(float64(act), 1) / max(est, 1)
	if act < driftFloor && est < driftFloor || r < driftThreshold && r > 1/driftThreshold {
		if c.drift.Load() != 0 {
			c.drift.Store(0)
		}
		return
	}
	if c.drift.Add(1) >= c.driftLimit {
		c.stale.Store(true)
	}
}

// levelPlan is one level of the physical pipeline: which FROM source it
// accesses, how (index probe or scan), and which residual predicates
// filter it, annotated with the planner's estimates.
type levelPlan struct {
	src       int
	probe     *probe // nil = scan
	resid     []Pred
	filter    []lowPred // resid, lowered
	estLoops  float64
	estAccess float64
	estOut    float64
	estCost   float64
}

// probe is an index nested-loop join step: look up the source's index
// on col with the value of expr (bound by outer levels).
type probe struct {
	col  string
	expr Expr
	key  lowered // expr, lowered
}

// srcSig captures what a cached plan assumed about one source. Standard
// tables must be the same table object with the same index count and
// row-count magnitude (log2 bucket — a table growing 10x deserves a new
// join order); temp tables must be shape-equal and similarly sized.
type srcSig struct {
	tbl     *storage.Table
	schema  *catalog.Schema
	logRows int
	nIdx    int
}

// sigOf takes a source's signature. Temp sources of one to driftFloor-1
// rows share one size bucket: a rule's bound table moves between one and a
// few rows from firing to firing, the plan for either is the same, and
// feedback already ignores estimates that small. An empty one keeps a
// bucket to itself — the planner can order a join around a source of no
// rows any way it likes, and that plan must not outlive the emptiness.
func sigOf(s *source) srcSig {
	g := srcSig{tbl: s.tbl, schema: s.schema}
	if s.tbl != nil {
		rows, nIdx := s.tbl.PlanStats()
		g.logRows, g.nIdx = bits.Len(uint(rows)), nIdx
	} else if n := s.tmp.Len(); n > 0 {
		g.logRows = 1 + bits.Len(uint(n/driftFloor))
	}
	return g
}

func makeSig(srcs []*source) []srcSig {
	sig := make([]srcSig, len(srcs))
	for i, s := range srcs {
		sig[i] = sigOf(s)
	}
	return sig
}

func sigMatch(sig []srcSig, srcs []*source) bool {
	if len(sig) != len(srcs) {
		return false
	}
	for i, s := range srcs {
		was, now := sig[i], sigOf(s)
		if was.tbl != now.tbl || was.logRows != now.logRows || was.nIdx != now.nIdx {
			return false
		}
		if s.tbl == nil && !was.schema.Equal(now.schema) {
			return false
		}
	}
	return true
}

// ensureCompiled returns a plan for the query against the given
// resolved sources, reusing the cached one when its signature still
// holds. Build errors are never cached; a later run with fixed inputs
// retries from scratch.
func (q *Select) ensureCompiled(tx *txn.Txn, srcs []*source) (*compiled, error) {
	mgr := tx.Manager()
	feedback := false
	if c := q.cache.Load(); c != nil && sigMatch(c.sig, srcs) {
		if !c.stale.Load() {
			mgr.Query.PlanHits.Inc()
			return c, nil
		}
		// The signature still holds but selectivity feedback marked the
		// plan stale: re-plan, and give the replacement a longer drift
		// leash so persistent skew doesn't rebuild every few runs.
		feedback = true
	}
	c, err := compile(q, tx, srcs)
	if err != nil {
		return nil, err
	}
	c.driftLimit = defaultDriftLimit
	if feedback {
		c.driftLimit = defaultDriftLimit * rebuiltPlanDriftBias
		mgr.Query.PlanFeedbackRebuilds.Inc()
	}
	q.cache.Store(c)
	mgr.Query.PlanBuilds.Inc()
	return c, nil
}

// lowerQuery produces a private resolved clone of the query against the
// given sources: expand *, resolve every expression, validate grouping.
// Returns the clone and whether it aggregates.
func lowerQuery(orig *Select, srcs []*source) (*Select, bool, error) {
	q := orig.clone()
	if q.Star {
		if len(q.Items) > 0 {
			return nil, false, fmt.Errorf("query: * cannot mix with explicit items")
		}
		for _, s := range srcs {
			for i := 0; i < s.schema.NumCols(); i++ {
				q.Items = append(q.Items, Item(QCol(s.name, s.schema.Col(i).Name), ""))
			}
		}
	}
	for i := range q.Items {
		if q.Items[i].Expr == nil {
			return nil, false, fmt.Errorf("query: select item %d has no expression", i)
		}
		if err := q.Items[i].Expr.resolve(srcs); err != nil {
			return nil, false, err
		}
	}
	for i := range q.Where {
		if err := q.Where[i].resolve(srcs); err != nil {
			return nil, false, err
		}
	}
	for _, g := range q.GroupBy {
		if err := g.resolve(srcs); err != nil {
			return nil, false, err
		}
	}
	agg, err := validateAggregates(q)
	if err != nil {
		return nil, false, err
	}
	return q, agg, nil
}

// compile lowers the query onto the resolved sources, hands the shape to
// the planner, and maps its chosen levels back onto executable probes
// and residual filters.
func compile(orig *Select, tx *txn.Txn, srcs []*source) (*compiled, error) {
	q, agg, err := lowerQuery(orig, srcs)
	if err != nil {
		return nil, err
	}

	tables, preds, probeSides := planInputs(q, srcs)
	model := tx.Model()
	res := plan.Choose(tables, preds, plan.Costs{
		IndexProbe: model.IndexProbe,
		ScanRow:    model.ScanRow,
		JoinRow:    model.JoinRow,
	})

	c := &compiled{
		q:       q,
		agg:     agg,
		nParams: q.paramCount(),
		estRows: res.EstRows,
		estCost: res.EstCost,
		sig:     makeSig(srcs),
	}
	for _, pi := range res.Consts {
		c.consts = append(c.consts, lowerPred(q.Where[pi], srcs))
	}
	c.levels = make([]levelPlan, len(res.Levels))
	for i, lv := range res.Levels {
		lp := levelPlan{
			src:       lv.Src,
			estLoops:  lv.EstLoops,
			estAccess: lv.EstAccess,
			estOut:    lv.EstOut,
			estCost:   lv.EstCost,
		}
		if lv.ProbePred >= 0 {
			side := probeSides[lv.ProbePred][lv.ProbeCand]
			lp.probe = &probe{col: side.col, expr: side.expr, key: lower(side.expr, srcs)}
		}
		for _, pi := range lv.Residuals {
			lp.resid = append(lp.resid, q.Where[pi])
		}
		lp.filter = lowerPreds(lp.resid, srcs)
		c.levels[i] = lp
	}
	return c, c.lowerItems(srcs)
}

// outputSchema derives a resolved query's result schema: one column per
// select item, named by its alias (a bare column reference defaults to the
// column's name) and typed by the item's expression, under the query's bind
// name.
func outputSchema(q *Select, srcs []*source) (*catalog.Schema, error) {
	cols := make([]catalog.Column, len(q.Items))
	for i, it := range q.Items {
		name := it.As
		if name == "" {
			cr, ok := it.Expr.(*ColRef)
			if !ok || it.Agg != AggNone {
				return nil, fmt.Errorf("query: select item %d (%s) needs an alias", i, it.Expr)
			}
			name = cr.Col
		}
		kind := exprKind(it.Expr, srcs)
		switch it.Agg {
		case AggCount:
			kind = types.KindInt
		case AggAvg:
			kind = types.KindFloat
		}
		cols[i] = catalog.Column{Name: name, Kind: kind}
	}
	name := q.Bind
	if name == "" {
		name = "result"
	}
	return catalog.NewSchema(name, cols)
}

// OutputSchema reports the schema a run of the query will produce, given
// the schema of each FROM table (lookup returns nil for a name it does not
// know). The rule system derives a rule's bound-table definitions from it
// when the rule is created, before any run.
func (q *Select) OutputSchema(lookup func(table string) *catalog.Schema) (*catalog.Schema, error) {
	srcs := make([]*source, len(q.From))
	for i, name := range q.From {
		schema := lookup(name)
		if schema == nil {
			return nil, fmt.Errorf("query: table %q does not exist", name)
		}
		srcs[i] = &source{name: name, schema: schema}
	}
	if len(srcs) == 0 {
		return nil, fmt.Errorf("query: select with empty FROM")
	}
	resolved, _, err := lowerQuery(q, srcs)
	if err != nil {
		return nil, err
	}
	return outputSchema(resolved, srcs)
}

// lowerItems lowers the select list and fixes the output schema (a
// DELETE's query has neither). For an aggregation it also decides what each
// aggregate item tracks: the sum of an INT-kinded argument stays in int64,
// exact past 2^53.
func (c *compiled) lowerItems(srcs []*source) error {
	q := c.q
	if len(q.Items) == 0 {
		return nil
	}
	var err error
	if c.out, err = outputSchema(q, srcs); err != nil {
		return err
	}
	c.names = make([]string, c.out.NumCols())
	for i := range c.names {
		c.names[i] = c.out.Col(i).Name
	}
	c.order = make([]int, len(q.OrderBy))
	for i, name := range q.OrderBy {
		if c.order[i] = c.out.ColIndex(name); c.order[i] < 0 {
			return fmt.Errorf("query: ORDER BY column %q not in select list", name)
		}
	}
	c.items = make([]lowered, len(q.Items))
	for i, it := range q.Items {
		c.items[i] = lower(it.Expr, srcs)
	}
	if !c.agg {
		return nil
	}
	c.groupBy = make([]lowered, len(q.GroupBy))
	for i, g := range q.GroupBy {
		c.groupBy[i] = lower(g, srcs)
	}
	c.repKey = make([]int, len(q.Items))
	for i, it := range q.Items {
		if it.Agg == AggNone {
			// validateAggregates matched the item to a grouped column.
			cr := it.Expr.(*ColRef)
			c.repKey[i] = slices.IndexFunc(q.GroupBy, func(g *ColRef) bool {
				return g.src == cr.src && g.col == cr.col
			})
			continue
		}
		c.aggs = append(c.aggs, aggSpec{
			item:  i,
			agg:   it.Agg,
			exact: it.Agg == AggSum && c.out.Col(i).Kind == types.KindInt,
			arg:   c.items[i],
		})
	}
	return nil
}

// paramCount reports how many parameters the query's placeholders need:
// one past the highest index.
func (q *Select) paramCount() int {
	n := 0
	note := func(x Expr) {
		if p, ok := x.(*ParamExpr); ok && p.Index >= n {
			n = p.Index + 1
		}
	}
	for _, it := range q.Items {
		it.Expr.walk(note)
	}
	for _, p := range q.Where {
		p.Left.walk(note)
		p.Right.walk(note)
	}
	return n
}

// probeSide pairs a plan.Probe candidate with the executable key
// expression (the predicate's other operand).
type probeSide struct {
	col  string
	expr Expr
}

// planInputs describes the resolved query to the planner: per-source
// statistics and per-predicate source sets, selectivity classes, and
// index-probe candidates (bare column = expression, candidate order
// left-then-right).
func planInputs(q *Select, srcs []*source) ([]plan.Table, []plan.Pred, [][]probeSide) {
	tables := make([]plan.Table, len(srcs))
	for i, s := range srcs {
		t := plan.Table{Name: s.name}
		if s.tbl != nil {
			t.Rows, _ = s.tbl.PlanStats()
			t.IndexKeys = s.tbl.IndexStats()
		} else {
			t.Temp = true
			t.Rows = s.tmp.Len()
		}
		tables[i] = t
	}
	preds := make([]plan.Pred, len(q.Where))
	sides := make([][]probeSide, len(q.Where))
	for i, p := range q.Where {
		pp := plan.Pred{Srcs: predSrcs(p), Class: classOf(p.Op)}
		if p.Op == EQ {
			addCand := func(side, other Expr) {
				cr, ok := side.(*ColRef)
				if !ok || srcs[cr.src].tbl == nil {
					return
				}
				pp.Probes = append(pp.Probes, plan.Probe{
					Src: cr.src, Col: cr.Col, OtherSrcs: exprSrcs(other),
				})
				sides[i] = append(sides[i], probeSide{col: cr.Col, expr: other})
			}
			addCand(p.Left, p.Right)
			addCand(p.Right, p.Left)
		}
		preds[i] = pp
	}
	return tables, preds, sides
}

func classOf(op CmpOp) plan.Class {
	switch op {
	case EQ:
		return plan.Eq
	case NE:
		return plan.NotEq
	default:
		return plan.Range
	}
}

// predSrcs lists the distinct sources a predicate references.
func predSrcs(p Pred) []int {
	seen := map[int]bool{}
	var out []int
	for _, e := range []Expr{p.Left, p.Right} {
		e.walk(func(x Expr) {
			if c, ok := x.(*ColRef); ok && !seen[c.src] {
				seen[c.src] = true
				out = append(out, c.src)
			}
		})
	}
	return out
}

// exprSrcs lists the distinct sources an expression references.
func exprSrcs(e Expr) []int {
	seen := map[int]bool{}
	var out []int
	e.walk(func(x Expr) {
		if c, ok := x.(*ColRef); ok && !seen[c.src] {
			seen[c.src] = true
			out = append(out, c.src)
		}
	})
	return out
}

// validateAggregates checks grouping rules on a resolved query and
// reports whether the query aggregates.
func validateAggregates(q *Select) (bool, error) {
	agg := false
	for _, it := range q.Items {
		if it.Agg != AggNone {
			agg = true
		}
	}
	if len(q.GroupBy) > 0 && !agg {
		return false, fmt.Errorf("query: GROUP BY without aggregates")
	}
	if len(q.GroupBy) > types.MaxKeyWidth {
		return false, fmt.Errorf("query: GROUP BY width %d exceeds %d", len(q.GroupBy), types.MaxKeyWidth)
	}
	if agg {
		// Every non-aggregate item must be one of the group-by columns.
		for _, it := range q.Items {
			if it.Agg != AggNone {
				continue
			}
			cr, ok := it.Expr.(*ColRef)
			if !ok {
				return false, fmt.Errorf("query: non-aggregate item %s must be a grouped column", it.Expr)
			}
			found := false
			for _, g := range q.GroupBy {
				if g.src == cr.src && g.col == cr.col {
					found = true
					break
				}
			}
			if !found {
				return false, fmt.Errorf("query: column %s is not in GROUP BY", cr)
			}
		}
	}
	return agg, nil
}
