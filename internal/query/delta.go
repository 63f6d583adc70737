package query

import (
	"errors"
	"slices"
	"sync/atomic"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/lock"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

// ErrDeltaInconsistent reports that applying a maintenance delta found the
// derived table in a state the delta cannot have produced — a group row
// missing where the delta expects one, a duplicate group row, or a support
// count driven negative. The caller (the generated maintenance action)
// falls back to a full recompute inside the same transaction, so the
// derived table self-heals.
var ErrDeltaInconsistent = errors.New("query: derived table inconsistent with delta")

// AggView is the delta of a grouped-sum view
//
//	select dim.key, sum(value), count(*) from base, dim
//	where dim.join = base.join group by dim.key
//
// compiled, when the view is created, into a fixed chain per changed base
// row — probe the dimension's join index, evaluate the value expression,
// fold it signed into a per-key accumulator — and three statements held
// for the life of the view that apply the accumulator. A run plans nothing
// and builds no statement; like a Select, the value must not be copied
// after first use.
type AggView struct {
	view, base, dim string
	dimJoin         string
	baseJoin        string
	dimKey          string
	value           Expr // over base and dim columns, table-qualified

	upd  UpdateStmt // val += ?0, count += ?1 where key = ?2
	del  DeleteStmt // where key = ?0 and count <= 0
	plan atomic.Pointer[aggPlan]
}

// NewAggView compiles the delta of the view table(keyCol, valCol, cntCol)
// defined over base ⋈ dim on base.baseJoin = dim.dimJoin, grouped by
// dim.dimKey, summing value.
func NewAggView(table, keyCol, valCol, cntCol, base, baseJoin, dim, dimJoin, dimKey string, value Expr) *AggView {
	return &AggView{
		view: table, base: base, dim: dim, dimJoin: dimJoin, baseJoin: baseJoin, dimKey: dimKey, value: value,
		upd: UpdateStmt{
			Table: table,
			Set: []SetClause{
				{Col: valCol, Expr: Param(0, types.KindFloat), AddTo: true},
				{Col: cntCol, Expr: Param(1, types.KindInt), AddTo: true},
			},
			Where: []Pred{Eq(Col(keyCol), Param(2, types.KindNull))},
		},
		// The count guard rides in the WHERE so the decision to drop a
		// group is made under the same X lock as the delete — no locked
		// re-read.
		del: DeleteStmt{
			Table: table,
			Where: []Pred{
				Eq(Col(keyCol), Param(0, types.KindNull)),
				Cmp(Col(cntCol), LE, Const(types.Int(0))),
			},
		},
	}
}

// aggPlan is the chain bound to the tables as they are now: the base
// table's column layout (every transition leaf shares it) and the
// dimension table. Rebuilt when either is re-created.
type aggPlan struct {
	leaf  *catalog.Schema // identity of the layout the plan was bound to
	dim   source
	join  int     // base join column, in a leaf
	key   int     // view key column, in dim
	value lowered // over {leaf row, dim record}
}

func (v *AggView) bind(tx *txn.Txn, leaf *storage.TempTable) (*aggPlan, error) {
	tbl, err := tx.ReadTable(v.dim)
	if err != nil {
		return nil, err
	}
	p := v.plan.Load()
	if p != nil && p.dim.tbl == tbl && p.leaf == leaf.Schema() {
		return p, nil
	}
	p = &aggPlan{leaf: leaf.Schema(), dim: source{name: v.dim, schema: tbl.Schema(), tbl: tbl}}
	srcs := []*source{{name: v.base, schema: p.leaf, tmp: leaf}, &p.dim}
	join, key := QCol(v.base, v.baseJoin), QCol(v.dim, v.dimKey)
	value := v.value.clone()
	for _, e := range []Expr{join, key, value} {
		if err := e.resolve(srcs); err != nil {
			return nil, err
		}
	}
	p.join, p.key, p.value = join.col, key.col, lower(value, srcs)
	v.plan.Store(p)
	return p, nil
}

// groupDelta is the net change to one group: the signed sum for the value
// column and the signed row support for the count column. leaf is the last
// leaf that touched it.
type groupDelta struct {
	key  types.Value
	sum  float64
	n    int64
	leaf int
}

// linearGroups is how many groups an accumulator finds by scanning before
// it builds an index: a firing touches a handful.
const linearGroups = 8

// groupFor finds key's group in acc, adding it if it is new: by scanning
// while there are few, through index once there are more.
func groupFor(acc []groupDelta, index map[types.Value]int, key types.Value) ([]groupDelta, map[types.Value]int, *groupDelta) {
	gi := -1
	if index != nil {
		if i, ok := index[key]; ok {
			gi = i
		}
	} else {
		gi = slices.IndexFunc(acc, func(g groupDelta) bool { return g.key == key })
	}
	if gi < 0 {
		gi = len(acc)
		acc = append(acc, groupDelta{key: key, leaf: -1})
		if index == nil && len(acc) > linearGroups {
			index = make(map[types.Value]int, 2*len(acc))
			for i := range acc[:gi] {
				index[acc[i].key] = i
			}
		}
		if index != nil {
			index[key] = gi
		}
	}
	return acc, index, &acc[gi]
}

// BaseDelta is one firing's changes to a view's base table, as the rule
// system binds them: the four transition tables.
type BaseDelta struct{ Inserted, New, Deleted, Old *storage.TempTable }

// ApplyDelta maintains the view from one firing's transition tables in
// O(rows): inserted and new rows add support to the groups they join,
// deleted and old rows remove it — deleting the old image and inserting
// the new one handles every update uniformly, join-key churn included —
// and the net per-group deltas are add-updated through the view's key
// index; a group that appears is inserted, one whose support reaches zero
// is deleted. Blind `+=` updates commute under the record X locks the
// update path takes, so concurrent maintenance tasks interleave safely.
// Returns the number of leaf rows consumed.
//
// The dimension is probed at the transaction's snapshot (or under S locks
// when it reads locked), and the virtual cost charged is that of the
// grouped join each leaf stands for: one statement set-up and two cursors
// per non-empty leaf, a scanned row and an index probe per leaf row, a
// joined and a grouped row per match, and a user-grouped row per group a
// leaf touches.
//
// Consistency checks (any failure returns ErrDeltaInconsistent and leaves
// the remaining deltas unapplied, so the caller can rebuild wholesale):
//
//   - a delta whose group row is missing must be a pure insertion
//     (count > 0) — a sum-only delta against a missing row means the view
//     lost state;
//   - more than one row per group key means the view gained state;
//   - a group driven to negative support means the view and the delta
//     disagree about the group's history.
func (v *AggView) ApplyDelta(tx *txn.Txn, d BaseDelta) (int, error) {
	p, err := v.bind(tx, d.Inserted)
	if err != nil {
		return 0, err
	}
	model, prof := tx.Model(), tx.Profile()
	var (
		first [linearGroups]groupDelta
		acc   = first[:0]
		index map[types.Value]int
		cur   [2]cursor
		r     = row{cur: cur[:]}
		found [linearGroups]*storage.Record
		recs  = found[:0]
		rows  int
	)
	for li, leaf := range [4]*storage.TempTable{d.Inserted, d.New, d.Deleted, d.Old} {
		if leaf.Len() == 0 {
			continue
		}
		sign := 1.0
		if li >= 2 {
			sign = -1
		}
		rows += leaf.Len()
		tx.Charge(model.StmtSetup + 2*model.OpenCursor)
		cur[0].tmp = leaf
		for i := 0; i < leaf.Len(); i++ {
			cur[0].row = i
			tx.Charge(model.ScanRow + model.IndexProbe)
			if recs, err = fetchRecords(tx, &p.dim, lock.Shared, v.dimJoin, *leaf.At(i, p.join), recs); err != nil {
				return rows, err
			}
			if prof != nil {
				prof.RowsScanned += int64(1 + len(recs))
				prof.RowsMatched += int64(len(recs))
			}
			for _, rec := range recs {
				tx.Charge(model.JoinRow + model.GroupRow)
				cur[1].rec = rec
				val, err := p.value.eval(&r)
				if err != nil {
					return rows, err
				}
				var g *groupDelta
				acc, index, g = groupFor(acc, index, *rec.At(p.key))
				if g.leaf != li {
					g.leaf = li
					tx.Charge(model.UserGroupRow)
				}
				g.sum += sign * val.Float()
				g.n += int64(sign)
			}
		}
	}

	var params [3]types.Value
	for i := range acc {
		g := &acc[i]
		if g.sum == 0 && g.n == 0 {
			continue
		}
		params[0], params[1], params[2] = types.Float(g.sum), types.Int(g.n), g.key
		matched, err := v.upd.RunParams(tx, params[:])
		if err != nil {
			return rows, err
		}
		switch {
		case matched > 1:
			return rows, ErrDeltaInconsistent
		case matched == 0:
			if g.n <= 0 {
				return rows, ErrDeltaInconsistent
			}
			ins := InsertStmt{Table: v.view, Rows: [][]types.Value{{g.key, params[0], params[1]}}}
			if _, err := ins.Run(tx); err != nil {
				return rows, err
			}
		case g.n < 0:
			// The group lost support; drop it if the count reached zero.
			if _, err := v.del.RunParams(tx, params[2:]); err != nil {
				return rows, err
			}
		}
	}
	return rows, nil
}

// RowDelta is the fresh value of one per-row-function view row.
type RowDelta struct {
	Key types.Value
	Val types.Value
}

// RowView applies per-row recompute results to a per-row-function view
// through two statements held for the life of the view.
type RowView struct {
	table string
	upd   UpdateStmt // val = ?0 where key = ?1
	del   DeleteStmt // where key = ?0
}

// NewRowView prepares the statements for the view table(keyCol, valCol).
func NewRowView(table, keyCol, valCol string) *RowView {
	return &RowView{
		table: table,
		upd: UpdateStmt{
			Table: table,
			Set:   []SetClause{{Col: valCol, Expr: Param(0, types.KindNull)}},
			Where: []Pred{Eq(Col(keyCol), Param(1, types.KindNull))},
		},
		del: DeleteStmt{Table: table, Where: []Pred{Eq(Col(keyCol), Param(0, types.KindNull))}},
	}
}

// Apply rewrites the view in O(deltas): each fresh (key, value) pair
// rewrites its view row through the key index (insert on miss — a base row
// joined a new view key), and each stale key — a key whose base row was
// deleted or re-keyed and which no fresh result re-covers — is deleted.
// Duplicate fresh keys resolve last-write-wins, matching the batched-update
// semantics of the seed maintenance rule. Returns the number of view rows
// touched.
//
// A key matching more than one view row trips ErrDeltaInconsistent (the
// view's key column is unique by construction).
func (v *RowView) Apply(tx *txn.Txn, fresh []RowDelta, stale []types.Value) (int, error) {
	applied := 0
	covered := make(map[types.Value]bool, len(fresh))
	var params [2]types.Value
	for _, d := range fresh {
		params[0], params[1] = d.Val, d.Key
		matched, err := v.upd.RunParams(tx, params[:])
		if err != nil {
			return applied, err
		}
		switch {
		case matched > 1:
			return applied, ErrDeltaInconsistent
		case matched == 0:
			ins := InsertStmt{Table: v.table, Rows: [][]types.Value{{d.Key, d.Val}}}
			if _, err := ins.Run(tx); err != nil {
				return applied, err
			}
		}
		covered[d.Key] = true
		applied++
	}
	for _, k := range stale {
		if covered[k] {
			continue
		}
		covered[k] = true
		params[0] = k
		n, err := v.del.RunParams(tx, params[:1])
		if err != nil {
			return applied, err
		}
		if n > 1 {
			return applied, ErrDeltaInconsistent
		}
		applied += n
	}
	return applied, nil
}
