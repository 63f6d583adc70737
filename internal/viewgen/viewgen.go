// Package viewgen generates derived-data maintenance rules from
// materialized view definitions — the paper's §8 future-work direction:
// "it should be possible for a materialized view manager to derive not
// just the rules to maintain a view but the unit of batching and delay
// window size as well", building on Ceri & Widom's automatic rule
// derivation [CW91].
//
// Two view shapes are supported, matching the paper's two experiment
// classes:
//
//   - aggregation views  SELECT g, sum(expr) FROM base, dim WHERE
//     dim.k = base.k GROUP BY g  (comp_prices-like), and
//   - per-row function views  SELECT d, f(args...) FROM base, dim WHERE
//     dim.k = base.k  (option_prices-like).
//
// Each shape is maintainable in one of two modes. Delta maintenance (the
// default when the needed indexes exist) compiles the rule action into
// delta plans: operator trees whose leaves are the firing's transition
// tables joined against the dimension via index probes, producing
// per-group (or per-row) delta rows applied to the derived table in
// O(|delta|). Full maintenance rebuilds the derived table from its
// defining query in O(|base|) — it remains available as an explicit mode
// and as the per-rule fallback when a delta consistency check trips.
//
// Given the view definition and workload statistics, Advise picks the unit
// of batching and delay window by the paper's two rules of thumb (§8):
// the unit should be "just large enough to take advantage of the
// redundancy in the recomputation but no larger", and the window should
// start small and grow only if load demands it.
package viewgen

import (
	"errors"
	"fmt"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/core"
	"github.com/stripdb/strip/internal/obs"
	"github.com/stripdb/strip/internal/query"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/types"
)

// Kind classifies a supported view shape.
type Kind uint8

// View shapes.
const (
	// Aggregation is a grouped sum over a join.
	Aggregation Kind = iota
	// PerRowFunction computes a scalar function per join row.
	PerRowFunction
)

// Mode selects how the generated rule maintains the materialized table.
type Mode uint8

// Maintenance modes.
const (
	// ModeAuto picks delta maintenance when DeltaRequirements are met and
	// silently falls back to full recomputation otherwise.
	ModeAuto Mode = iota
	// ModeDelta requires O(|delta|) maintenance; rule generation fails if
	// the needed indexes are missing.
	ModeDelta
	// ModeFull always rebuilds the view from its defining query — the
	// O(|base|) baseline the delta experiments compare against.
	ModeFull
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeDelta:
		return "delta"
	case ModeFull:
		return "full"
	default:
		return "unknown"
	}
}

// CountColumn is the support-count column delta maintenance adds to
// aggregation view schemas: the number of base rows contributing to the
// group, so group death (count reaching zero) is detectable from deltas
// alone.
const CountColumn = "vg_count"

// Spec is an analyzed view definition ready for materialization and rule
// generation.
type Spec struct {
	Name string
	Kind Kind

	// base is the rapidly-updating table; dim the (mostly static) join
	// dimension carrying the view's key.
	base, dim string
	// baseJoinCol / dimJoinCol are the equi-join columns.
	baseJoinCol, dimJoinCol string
	// keyCol is the view's key column (from dim, or dim's join key).
	keyCol *query.ColRef
	// valueExpr is the summed expression (Aggregation) or the function
	// call (PerRowFunction), referencing base and dim columns.
	valueExpr query.Expr
	valueName string
	// baseCols are base columns the value expression reads (part of the
	// rule's update-event column filter).
	baseCols []string
	// baseJoinKind is the base join column's type, needed to build the
	// per-row delta working-set table.
	baseJoinKind types.Kind

	def *query.Select
}

// Catalog is the subset of schema lookup viewgen needs.
type Catalog interface {
	Lookup(name string) (*catalog.Schema, bool)
}

// Analyze validates a view definition against the catalog and classifies
// it. The definition must join exactly two tables on one equality, select
// exactly [key, value], and (for Aggregation) group by the key.
func Analyze(cat Catalog, name string, def *query.Select) (*Spec, error) {
	if name == "" {
		return nil, fmt.Errorf("viewgen: view has no name")
	}
	if len(def.From) != 2 {
		return nil, fmt.Errorf("viewgen: view %s must join exactly two tables, got %d", name, len(def.From))
	}
	if len(def.Items) != 2 {
		return nil, fmt.Errorf("viewgen: view %s must select exactly [key, value]", name)
	}
	if def.Limit != 0 {
		// A LIMIT would make the maintained rows depend on scan order; the
		// incremental maintenance rules have no way to honor that.
		return nil, fmt.Errorf("viewgen: view %s cannot use LIMIT", name)
	}
	schemas := make([]*catalog.Schema, 2)
	for i, t := range def.From {
		s, ok := cat.Lookup(t)
		if !ok {
			return nil, fmt.Errorf("viewgen: view %s references unknown table %q", name, t)
		}
		schemas[i] = s
	}
	if len(def.Where) != 1 || def.Where[0].Op != query.EQ {
		return nil, fmt.Errorf("viewgen: view %s needs exactly one equi-join predicate", name)
	}
	lref, lok := def.Where[0].Left.(*query.ColRef)
	rref, rok := def.Where[0].Right.(*query.ColRef)
	if !lok || !rok {
		return nil, fmt.Errorf("viewgen: view %s join predicate must compare two columns", name)
	}

	sp := &Spec{Name: name, def: def}

	keyItem, valItem := def.Items[0], def.Items[1]
	keyRef, ok := keyItem.Expr.(*query.ColRef)
	if !ok || keyItem.Agg != query.AggNone {
		return nil, fmt.Errorf("viewgen: view %s first select item must be the key column", name)
	}
	sp.keyCol = keyRef

	switch {
	case valItem.Agg == query.AggSum:
		sp.Kind = Aggregation
		if len(def.GroupBy) != 1 || def.GroupBy[0].Col != keyRef.Col {
			return nil, fmt.Errorf("viewgen: view %s must GROUP BY its key column", name)
		}
	case valItem.Agg == query.AggNone:
		if _, isFn := valItem.Expr.(*query.FuncExpr); !isFn {
			return nil, fmt.Errorf("viewgen: view %s value must be sum(...) or a function call", name)
		}
		sp.Kind = PerRowFunction
		if len(def.GroupBy) != 0 {
			return nil, fmt.Errorf("viewgen: per-row view %s cannot GROUP BY", name)
		}
	default:
		return nil, fmt.Errorf("viewgen: view %s aggregate %v unsupported (only sum)", name, valItem.Agg)
	}
	sp.valueExpr = valItem.Expr
	sp.valueName = valItem.As
	if sp.valueName == "" {
		return nil, fmt.Errorf("viewgen: view %s value column needs an alias", name)
	}

	// Classify base vs dim: the key column belongs to the dimension; the
	// other table is the base whose updates drive maintenance.
	keyTable, err := ownerOf(keyRef, def.From, schemas)
	if err != nil {
		return nil, fmt.Errorf("viewgen: view %s: %w", name, err)
	}
	if keyTable == def.From[0] {
		sp.dim, sp.base = def.From[0], def.From[1]
	} else {
		sp.dim, sp.base = def.From[1], def.From[0]
	}

	// Orient the join predicate.
	lTable, err := ownerOf(lref, def.From, schemas)
	if err != nil {
		return nil, fmt.Errorf("viewgen: view %s: %w", name, err)
	}
	if lTable == sp.base {
		sp.baseJoinCol, sp.dimJoinCol = lref.Col, rref.Col
	} else {
		sp.baseJoinCol, sp.dimJoinCol = rref.Col, lref.Col
	}
	baseSchema := schemas[0]
	if sp.base == def.From[1] {
		baseSchema = schemas[1]
	}
	bj := baseSchema.ColIndex(sp.baseJoinCol)
	if bj < 0 {
		return nil, fmt.Errorf("viewgen: view %s: join column %q not in table %q", name, sp.baseJoinCol, sp.base)
	}
	sp.baseJoinKind = baseSchema.Col(bj).Kind

	// Canonicalize the value expression to fully qualified references and
	// collect the base columns it reads (the rule's update-event filter).
	// Qualification matters downstream: the generated condition query joins
	// `new` and `old`, which share the base schema, so unqualified base
	// references would turn ambiguous.
	seen := map[string]bool{}
	var ownErr error
	sp.valueExpr = query.RewriteRefs(sp.valueExpr, func(ref *query.ColRef) *query.ColRef {
		owner, err := ownerOf(ref, def.From, schemas)
		if err != nil {
			if ownErr == nil {
				ownErr = err
			}
			return ref
		}
		if owner == sp.base && !seen[ref.Col] {
			seen[ref.Col] = true
			sp.baseCols = append(sp.baseCols, ref.Col)
		}
		return query.QCol(owner, ref.Col)
	})
	if ownErr != nil {
		return nil, fmt.Errorf("viewgen: view %s: %w", name, ownErr)
	}
	if len(sp.baseCols) == 0 {
		return nil, fmt.Errorf("viewgen: view %s value expression reads no base columns", name)
	}
	return sp, nil
}

// ownerOf resolves which FROM table a reference belongs to.
func ownerOf(ref *query.ColRef, from []string, schemas []*catalog.Schema) (string, error) {
	if ref.Table != "" {
		for _, t := range from {
			if t == ref.Table {
				return t, nil
			}
		}
		return "", fmt.Errorf("column %s references a table outside FROM", ref)
	}
	owner := ""
	for i, s := range schemas {
		if s.HasCol(ref.Col) {
			if owner != "" {
				return "", fmt.Errorf("column %s is ambiguous", ref)
			}
			owner = from[i]
		}
	}
	if owner == "" {
		return "", fmt.Errorf("column %s not found", ref)
	}
	return owner, nil
}

// Base returns the base (rapidly updating) table.
func (sp *Spec) Base() string { return sp.base }

// Dim returns the dimension table.
func (sp *Spec) Dim() string { return sp.dim }

// KeyColumn returns the view's key column name.
func (sp *Spec) KeyColumn() string { return sp.keyCol.Col }

// ValueColumn returns the view's value column name.
func (sp *Spec) ValueColumn() string { return sp.valueName }

// ViewSchema returns the schema of the materialized table. Aggregation
// views carry a third support-count column (CountColumn) so delta
// maintenance can detect group death without consulting the base table.
func (sp *Spec) ViewSchema(cat Catalog) (*catalog.Schema, error) {
	dimSchema, ok := cat.Lookup(sp.dim)
	if !ok {
		return nil, fmt.Errorf("viewgen: dimension %q vanished", sp.dim)
	}
	keyKind := dimSchema.Col(dimSchema.ColIndex(sp.keyCol.Col)).Kind
	cols := []catalog.Column{
		{Name: sp.keyCol.Col, Kind: keyKind},
		{Name: sp.valueName, Kind: types.KindFloat},
	}
	if sp.Kind == Aggregation {
		cols = append(cols, catalog.Column{Name: CountColumn, Kind: types.KindInt})
	}
	return catalog.NewSchema(sp.Name, cols)
}

// LoadQuery returns the query that computes the view's full contents from
// the base tables: the canonicalized definition, extended (for aggregation
// views) with the support count. It feeds both initial materialization and
// the full-recompute maintenance path, so the two always agree on shape.
func (sp *Spec) LoadQuery() *query.Select {
	join := query.Eq(query.QCol(sp.base, sp.baseJoinCol), query.QCol(sp.dim, sp.dimJoinCol))
	key := query.QCol(sp.dim, sp.keyCol.Col)
	if sp.Kind == Aggregation {
		return &query.Select{
			Items: []query.SelectItem{
				query.Item(key, sp.keyCol.Col),
				query.AggItem(query.AggSum, sp.valueExpr, sp.valueName),
				query.AggItem(query.AggCount, query.Const(types.Int(1)), CountColumn),
			},
			From:    []string{sp.base, sp.dim},
			Where:   []query.Pred{join},
			GroupBy: []*query.ColRef{query.QCol(sp.dim, sp.keyCol.Col)},
		}
	}
	return &query.Select{
		Items: []query.SelectItem{
			query.Item(key, sp.keyCol.Col),
			query.Item(sp.valueExpr, sp.valueName),
		},
		From:  []string{sp.base, sp.dim},
		Where: []query.Pred{join},
	}
}

// Requirement names an index delta maintenance needs: the delta plans
// probe Table through an index on Col at every firing, so without it the
// per-firing cost degrades to a scan of Table.
type Requirement struct {
	Table, Col string
}

// DeltaRequirements lists the indexes delta maintenance needs for this
// view: the dimension's join column always (every transition leaf joins
// through it), plus — for per-row views — the base table's join column
// (the recompute joins the affected-key working set back to base rows).
func (sp *Spec) DeltaRequirements() []Requirement {
	reqs := []Requirement{{Table: sp.dim, Col: sp.dimJoinCol}}
	if sp.Kind == PerRowFunction {
		reqs = append(reqs, Requirement{Table: sp.base, Col: sp.baseJoinCol})
	}
	return reqs
}

// Stats carries the workload statistics the advisor consumes (the paper's
// §8: "by maintaining statistics such as join selectivities and how often
// tables are updated").
type Stats struct {
	// UpdateRate is base-table updates per second.
	UpdateRate float64
	// FanOut is the average number of view rows affected by one base
	// update (join selectivity × view size).
	FanOut float64
	// Groups is the number of distinct view keys.
	Groups int
	// MaxStaleness bounds how long the view may lag the base data.
	MaxStaleness clock.Micros
}

// Advice is the generated batching configuration.
type Advice struct {
	Unique   bool
	UniqueOn []string
	Delay    clock.Micros
	// Reason documents the choice for operators.
	Reason string
}

// Advise picks the unit of batching and the delay window.
//
// Unit of batching (paper §5 conclusions): "the unit of batching should be
// chosen to be just large enough to take advantage of the redundancy in
// the recomputation but no larger":
//
//   - Aggregation views gain from combining changes to the *same view
//     tuple* (read-modify-write once): batch per view key — the paper's
//     do_comps3 winner, which also keeps recompute transactions short.
//   - Per-row function views gain only from collapsing repeated changes of
//     the *same base row*: batch per base join key — the paper's §5.2
//     winner (batching per view row was unmanageable, coarser added
//     nothing but longer transactions).
//
// Delay window: "increasing the size of the delay window yields
// diminishing returns so a small window should be chosen to begin":
// pick the smallest window expected to batch ≈2 changes per unit
// (2 / per-unit touch rate), clamped to [100 ms, MaxStaleness].
func (sp *Spec) Advise(s Stats) Advice {
	adv := Advice{Unique: true}
	var touchRate float64
	if sp.Kind == Aggregation {
		adv.UniqueOn = []string{sp.keyCol.Col}
		if s.Groups > 0 {
			touchRate = s.UpdateRate * s.FanOut / float64(s.Groups)
		}
		adv.Reason = fmt.Sprintf(
			"aggregation view: batch per view key %q (combine changes to the same view tuple; short transactions)",
			sp.keyCol.Col)
	} else {
		adv.UniqueOn = []string{sp.dimJoinCol}
		touchRate = s.UpdateRate // per-base-key rate dominated by hot keys; window grows from the floor anyway
		if s.Groups > 0 {
			touchRate = s.UpdateRate / float64(s.Groups)
		}
		adv.Reason = fmt.Sprintf(
			"per-row function view: batch per base key %q (collapse repeated updates of the same base row)",
			sp.dimJoinCol)
	}

	const floor = 100 * 1000 // 100 ms
	delay := clock.Micros(0)
	if touchRate > 0 {
		delay = clock.Micros(2e6 / touchRate)
	}
	if delay < floor {
		delay = floor
	}
	if s.MaxStaleness > 0 && delay > s.MaxStaleness {
		delay = s.MaxStaleness
	}
	adv.Delay = delay
	return adv
}

// transition table names (mirroring core's reserved bind names).
const (
	transInserted = "inserted"
	transDeleted  = "deleted"
	transNew      = "new"
	transOld      = "old"
)

// MaintenanceRule generates the rule definition and the action function
// maintaining the materialized table, under the given advice and a
// *resolved* maintenance mode (ModeDelta or ModeFull — the caller resolves
// ModeAuto against DeltaRequirements before calling). actionName must be
// unique per view; reg is the engine's registry, where the delta actions
// count their runs.
//
// Both modes trigger on inserts, deletes, and updates of the columns the
// view reads (value columns plus the join key, so re-keyed base rows
// re-maintain both their old and new groups). Both batch view-wide
// (Unique without UniqueOn): the delta rule binds raw transition tables,
// which carry the base join key in every leaf and therefore cannot be
// partitioned by the engine's unique-on splitter, and the full rule binds
// nothing at all. Coalesced firings merge their transition rows into the
// queued task; the merged rows are exactly the batch's delta.
func (sp *Spec) MaintenanceRule(actionName string, adv Advice, mode Mode, reg *obs.Registry) (*core.Rule, core.ActionFunc, error) {
	updateCols := append(append([]string{}, sp.baseCols...), sp.baseJoinCol)
	rule := &core.Rule{
		Name:  "maintain_" + sp.Name,
		Table: sp.base,
		Events: []core.EventSpec{
			{Kind: core.Inserted},
			{Kind: core.Deleted},
			{Kind: core.Updated, Columns: updateCols},
		},
		Action:      actionName,
		Unique:      adv.Unique,
		Delay:       adv.Delay,
		Maintenance: mode.String(),
	}
	switch mode {
	case ModeDelta:
		rule.BindTransitions = []string{transInserted, transDeleted, transNew, transOld}
		if sp.Kind == Aggregation {
			return rule, sp.deltaAggAction(newDeltaCounters(reg)), nil
		}
		return rule, sp.deltaPerRowAction(newDeltaCounters(reg)), nil
	case ModeFull:
		return rule, sp.fullRebuildAction(), nil
	default:
		return nil, nil, fmt.Errorf("viewgen: view %s: maintenance mode %s not resolved", sp.Name, mode)
	}
}

// deltaCounters are the registry's delta-maintenance counters, resolved
// once per generated rule.
type deltaCounters struct{ applied, rows, fallbacks *obs.Counter }

func newDeltaCounters(reg *obs.Registry) deltaCounters {
	return deltaCounters{
		applied:   reg.Counter(obs.MDeltaApplied),
		rows:      reg.Counter(obs.MDeltaRows),
		fallbacks: reg.Counter(obs.MDeltaFallbacks),
	}
}

// settle closes one delta run: count it, or — when a consistency check
// tripped — count the fallback and rebuild the view in the same
// transaction, so it self-heals at the cost of one O(|base|) run.
func (c deltaCounters) settle(ctx *core.ActionContext, consumed int, err error, rebuild core.ActionFunc) error {
	switch {
	case err == nil:
		c.applied.Inc()
		c.rows.Add(int64(consumed))
		return nil
	case errors.Is(err, query.ErrDeltaInconsistent):
		c.fallbacks.Inc()
		return rebuild(ctx)
	default:
		return err
	}
}

// deltaAggAction maintains an aggregation view from its transition-table
// deltas through the chain query.NewAggView compiles here, once: per leaf
// row an index probe of the dimension and a signed fold into the groups it
// joins, then one held UPDATE per touched group — O(|delta|) total, however
// large the base table is.
func (sp *Spec) deltaAggAction(counters deltaCounters) core.ActionFunc {
	view := query.NewAggView(sp.Name, sp.keyCol.Col, sp.valueName, CountColumn,
		sp.base, sp.baseJoinCol, sp.dim, sp.dimJoinCol, sp.keyCol.Col, sp.valueExpr)
	rebuild := sp.rebuildFn()
	return func(ctx *core.ActionContext) error {
		var d query.BaseDelta
		var ok [4]bool
		d.Inserted, ok[0] = ctx.Bound(transInserted)
		d.New, ok[1] = ctx.Bound(transNew)
		d.Deleted, ok[2] = ctx.Bound(transDeleted)
		d.Old, ok[3] = ctx.Bound(transOld)
		if ok != [4]bool{true, true, true, true} {
			return fmt.Errorf("viewgen: view %s: transition tables not bound", sp.Name)
		}
		consumed, err := view.ApplyDelta(ctx.Txn(), d)
		return counters.settle(ctx, consumed, err, rebuild)
	}
}

// affTable is the name the per-row recompute query knows the firing's
// affected-key working set by.
const affTable = "vg_aff"

// deltaPerRowAction maintains a per-row-function view from its transition
// tables: the affected base join keys (from every leaf) are projected into
// a working-set table, the view rows they produce are recomputed through
// index probes on base and dim, and keys whose base rows vanished or moved
// are deleted — O(|delta|) view rows touched per firing.
//
// The recompute assumes the base join key functionally determines the view
// row (one base row per key), which holds for the paper's option_prices
// workload; duplicate fresh keys resolve last-write-wins like the seed
// maintenance rule. Base rows are read under S locks (QueryLockedWith) so
// the recompute serializes with concurrent base writers instead of
// overwriting their updates from a stale snapshot.
func (sp *Spec) deltaPerRowAction(counters deltaCounters) core.ActionFunc {
	view := sp.Name
	rows := query.NewRowView(sp.Name, sp.keyCol.Col, sp.valueName)
	names := []string{transInserted, transNew, transDeleted, transOld}
	// Keys of view rows that may have gone stale: groups the deleted/old
	// images pointed at. If the base row was merely updated in place the
	// recompute re-covers the key; if it was deleted or re-keyed, nothing
	// does, and the view row is removed.
	staleQs := make([]*query.Select, 0, 2)
	for _, n := range []string{transDeleted, transOld} {
		staleQs = append(staleQs, &query.Select{
			Items: []query.SelectItem{query.Item(query.QCol(sp.dim, sp.keyCol.Col), "vg_key")},
			From:  []string{n, sp.dim},
			Where: []query.Pred{query.Eq(query.QCol(sp.dim, sp.dimJoinCol), query.QCol(n, sp.baseJoinCol))},
		})
	}
	recompute := &query.Select{
		Items: []query.SelectItem{
			query.Item(query.QCol(sp.dim, sp.keyCol.Col), "vg_key"),
			query.Item(sp.valueExpr, "vg_val"),
		},
		From: []string{affTable, sp.base, sp.dim},
		Where: []query.Pred{
			query.Eq(query.QCol(sp.base, sp.baseJoinCol), query.QCol(affTable, "vg_base")),
			query.Eq(query.QCol(sp.dim, sp.dimJoinCol), query.QCol(sp.base, sp.baseJoinCol)),
		},
	}
	affSchema, affErr := catalog.NewSchema(affTable, []catalog.Column{{Name: "vg_base", Kind: sp.baseJoinKind}})
	rebuild := sp.rebuildFn()
	return func(ctx *core.ActionContext) error {
		if affErr != nil {
			return affErr
		}
		model := ctx.Model()
		aff := storage.NewValueTempTable(affSchema)
		defer aff.Retire()
		seen := map[types.Value]bool{}
		consumed := 0
		for _, n := range names {
			tt, ok := ctx.Bound(n)
			if !ok {
				return fmt.Errorf("viewgen: view %s: transition table %q not bound", view, n)
			}
			consumed += tt.Len()
			ci := tt.Schema().ColIndex(sp.baseJoinCol)
			for i := 0; i < tt.Len(); i++ {
				ctx.Charge(model.UserGroupRow)
				k := tt.Value(i, ci)
				if seen[k] {
					continue
				}
				seen[k] = true
				if err := aff.AppendValues(k); err != nil {
					return err
				}
			}
		}
		if aff.Len() == 0 {
			return nil
		}
		var stale []types.Value
		staleSeen := map[types.Value]bool{}
		for _, q := range staleQs {
			out, err := ctx.Query(q)
			if err != nil {
				return err
			}
			for i := 0; i < out.Len(); i++ {
				k := out.Value(i, 0)
				if !staleSeen[k] {
					staleSeen[k] = true
					stale = append(stale, k)
				}
			}
			out.Retire()
		}
		out, err := ctx.QueryLockedWith(recompute, map[string]*storage.TempTable{affTable: aff})
		if err != nil {
			return err
		}
		last := map[types.Value]int{}
		var fresh []query.RowDelta
		for i := 0; i < out.Len(); i++ {
			ctx.Charge(model.UserGroupRow)
			k := out.Value(i, 0)
			if j, ok := last[k]; ok {
				fresh[j].Val = out.Value(i, 1)
				continue
			}
			last[k] = len(fresh)
			fresh = append(fresh, query.RowDelta{Key: k, Val: out.Value(i, 1)})
		}
		out.Retire()
		live := stale[:0]
		for _, k := range stale {
			if _, ok := last[k]; !ok {
				live = append(live, k)
			}
		}
		_, err = rows.Apply(ctx.Txn(), fresh, live)
		return counters.settle(ctx, consumed, err, rebuild)
	}
}

// rebuildFn returns the full-recompute body shared by the ModeFull action
// and the delta actions' consistency fallback: empty the view (the
// whole-table delete takes the table X lock first, serializing concurrent
// rebuilds), re-run the defining query under S locks so committed base
// state — not the action's begin snapshot — is what gets materialized,
// and reload the rows.
func (sp *Spec) rebuildFn() core.ActionFunc {
	view := sp.Name
	load := sp.LoadQuery()
	return func(ctx *core.ActionContext) error {
		if _, err := ctx.ExecDelete(&query.DeleteStmt{Table: view}); err != nil {
			return err
		}
		out, err := ctx.QueryLocked(load)
		if err != nil {
			return err
		}
		defer out.Retire()
		model := ctx.Model()
		n := out.Schema().NumCols()
		rows := make([][]types.Value, 0, out.Len())
		for i := 0; i < out.Len(); i++ {
			ctx.Charge(model.UserGroupRow)
			row := make([]types.Value, n)
			for c := 0; c < n; c++ {
				row[c] = out.Value(i, c)
			}
			rows = append(rows, row)
		}
		if len(rows) == 0 {
			return nil
		}
		_, err = ctx.ExecInsert(&query.InsertStmt{Table: view, Rows: rows})
		return err
	}
}

// fullRebuildAction is the ModeFull maintenance action: every firing
// rebuilds the view wholesale — the O(|base|) baseline.
func (sp *Spec) fullRebuildAction() core.ActionFunc { return sp.rebuildFn() }
