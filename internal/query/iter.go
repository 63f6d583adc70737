package query

import (
	"fmt"
	"strings"

	"github.com/stripdb/strip/internal/lock"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

// op is a Volcano-style streaming iterator. open positions the
// operator (re-opening an inner operator restarts it for the next
// outer row), next advances it one row — operators publish their
// current row by writing the owning source's cursor into exec.cur, so
// expressions evaluate against the joint row without copying — and
// node reports the operator's explain entry with estimated and actual
// rows.
type op interface {
	open() error
	next() (bool, error)
	close()
	node() *PlanNode
}

// buildTree assembles the physical operator tree for a compiled plan:
// a left-deep chain of nested-loop joins over scan/probe leaves (each
// wrapped in a filter when residual predicates apply), topped by a
// project or aggregate sink.
func (ex *exec) buildTree() op {
	var root op
	for pos := range ex.c.levels {
		lp := &ex.c.levels[pos]
		var acc op
		if lp.probe != nil {
			acc = &probeOp{ex: ex, lp: lp, pos: pos}
		} else {
			acc = &scanOp{ex: ex, lp: lp, pos: pos}
		}
		if len(lp.resid) > 0 {
			acc = &filterOp{ex: ex, lp: lp, child: acc}
		}
		if root == nil {
			root = acc
		} else {
			root = &joinOp{left: root, right: acc, est: lp.estOut}
		}
	}
	if ex.c.agg {
		return &aggOp{ex: ex, child: root}
	}
	return &projectOp{ex: ex, child: root}
}

// stopsAtLimit reports whether the run may stop as soon as the output
// holds LIMIT rows: nothing downstream reorders or folds them.
func (ex *exec) stopsAtLimit() bool {
	return ex.q.Limit > 0 && !ex.c.agg && len(ex.q.OrderBy) == 0
}

// drive pulls the root until exhausted, or until the output is full when
// stopsAtLimit.
func (ex *exec) drive(root op) error {
	if err := root.open(); err != nil {
		return err
	}
	defer root.close()
	limit := ex.q.Limit
	early := ex.stopsAtLimit()
	for {
		ok, err := root.next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if early && ex.out.Len() >= limit {
			return nil
		}
	}
}

// scanOp iterates one source: a temp table by row index, a standard
// table by collecting the visible record set on first open (fetchRecords:
// under the table S lock for locked reads, or lock-free at the
// transaction's snapshot). The set is collected under the table latch into
// a buffer the storage layer sizes once, and visited only after the latch
// is released:
// with no table S locks serializing writers on the snapshot path, a latch
// held across the consumer (which may latch another table, or this one
// again) can deadlock against a queued writer (RWMutex is
// writer-preferring). The collected set is reused across re-opens within
// the run — legal because either the S lock or the fixed snapshot pins the
// visible set — so an inner scan pays the real scan once per query instead
// of once per outer row; the virtual ScanRow charge is still paid per
// yielded row for cost parity with the paper's model.
type scanOp struct {
	ex   *exec
	lp   *levelPlan
	pos  int
	mode string
	recs []*storage.Record
	mat  bool
	i    int
	rows int64
}

func (o *scanOp) open() error {
	o.i = 0
	s := o.ex.srcs[o.lp.src]
	if s.tbl == nil {
		o.mode = "temp"
		return nil
	}
	if o.mat {
		return nil
	}
	o.mode = "locked"
	if o.ex.tx.SnapshotReads() {
		o.mode = "snapshot"
	}
	var err error
	o.recs, err = fetchRecords(o.ex.tx, s, lock.Shared, "", types.Value{}, nil)
	o.mat = err == nil
	return err
}

func (o *scanOp) next() (bool, error) {
	ex := o.ex
	c := &ex.cur[o.lp.src]
	if c.tmp != nil {
		if o.i >= c.tmp.Len() {
			return false, nil
		}
		ex.tx.Charge(ex.model.ScanRow)
		c.row = o.i
	} else {
		if o.i >= len(o.recs) {
			return false, nil
		}
		ex.tx.Charge(ex.model.ScanRow)
		c.rec = o.recs[o.i]
	}
	o.i++
	if ex.prof != nil {
		ex.prof.RowsScanned++
	}
	if o.pos > 0 {
		ex.tx.Charge(ex.model.JoinRow)
	}
	o.rows++
	return true, nil
}

func (o *scanOp) close() {}

func (o *scanOp) node() *PlanNode {
	s := o.ex.srcs[o.lp.src]
	mode := o.mode
	if mode == "" {
		mode = "unopened"
	}
	return &PlanNode{
		Op:      "scan",
		Detail:  fmt.Sprintf("%s %s", s.name, mode),
		EstRows: o.lp.estAccess,
		ActRows: o.rows,
	}
}

// probeOp is an index nested-loop step: each open evaluates the key
// expression against the outer cursors and looks up the source's index
// (fetchRecords: lock-free against the snapshot, or S-locking exactly the
// probed rows). The matches land in recs, which the op owns and refills
// on every re-open.
type probeOp struct {
	ex   *exec
	lp   *levelPlan
	pos  int
	recs []*storage.Record
	i    int
	rows int64
}

func (o *probeOp) open() error {
	o.i = 0
	ex := o.ex
	v, err := o.lp.probe.key.eval(&ex.row)
	if err != nil {
		return err
	}
	ex.tx.Charge(ex.model.IndexProbe)
	o.recs, err = fetchRecords(ex.tx, ex.srcs[o.lp.src], lock.Shared, o.lp.probe.col, v, o.recs)
	return err
}

func (o *probeOp) next() (bool, error) {
	ex := o.ex
	if o.i >= len(o.recs) {
		return false, nil
	}
	ex.cur[o.lp.src].rec = o.recs[o.i]
	o.i++
	if ex.prof != nil {
		ex.prof.RowsScanned++
	}
	if o.pos > 0 {
		ex.tx.Charge(ex.model.JoinRow)
	}
	o.rows++
	return true, nil
}

func (o *probeOp) close() {}

func (o *probeOp) node() *PlanNode {
	s := o.ex.srcs[o.lp.src]
	return &PlanNode{
		Op:      "probe",
		Detail:  fmt.Sprintf("%s.%s = %s", s.name, o.lp.probe.col, o.ex.text(o.lp.probe.expr)),
		EstRows: o.lp.estAccess,
		ActRows: o.rows,
	}
}

// filterOp applies a level's residual predicates.
type filterOp struct {
	ex    *exec
	lp    *levelPlan
	child op
	rows  int64
}

func (o *filterOp) open() error { return o.child.open() }

func (o *filterOp) next() (bool, error) {
	for {
		ok, err := o.child.next()
		if err != nil || !ok {
			return ok, err
		}
		pass, err := allHold(o.lp.filter, &o.ex.row)
		if err != nil {
			return false, err
		}
		if pass {
			o.rows++
			return true, nil
		}
	}
}

func (o *filterOp) close() { o.child.close() }

func (o *filterOp) node() *PlanNode {
	parts := make([]string, len(o.lp.resid))
	for i, p := range o.lp.resid {
		parts[i] = fmt.Sprintf("%s %s %s", o.ex.text(p.Left), p.Op, o.ex.text(p.Right))
	}
	return &PlanNode{
		Op:       "filter",
		Detail:   strings.Join(parts, " and "),
		EstRows:  o.lp.estOut,
		ActRows:  o.rows,
		Children: []*PlanNode{o.child.node()},
	}
}

// joinOp is a nested-loop join: for each left row it re-opens the right
// side (re-evaluating probes against the new outer cursors) and streams
// the cross-matched rows.
type joinOp struct {
	left, right op
	liveRight   bool
	est         float64
	rows        int64
}

func (j *joinOp) open() error {
	j.liveRight = false
	return j.left.open()
}

func (j *joinOp) next() (bool, error) {
	for {
		if !j.liveRight {
			ok, err := j.left.next()
			if err != nil || !ok {
				return false, err
			}
			if err := j.right.open(); err != nil {
				return false, err
			}
			j.liveRight = true
		}
		ok, err := j.right.next()
		if err != nil {
			return false, err
		}
		if ok {
			j.rows++
			return true, nil
		}
		j.right.close()
		j.liveRight = false
	}
}

func (j *joinOp) close() {
	if j.liveRight {
		j.right.close()
		j.liveRight = false
	}
	j.left.close()
}

func (j *joinOp) node() *PlanNode {
	return &PlanNode{
		Op:       "join",
		Detail:   "nested loop",
		EstRows:  j.est,
		ActRows:  j.rows,
		Children: []*PlanNode{j.left.node(), j.right.node()},
	}
}

// projectOp emits each joint row into the output temp table.
type projectOp struct {
	ex    *exec
	child op
	rows  int64
}

func (o *projectOp) open() error { return o.child.open() }

func (o *projectOp) next() (bool, error) {
	ok, err := o.child.next()
	if err != nil || !ok {
		return ok, err
	}
	if err := o.ex.emit(); err != nil {
		return false, err
	}
	o.rows++
	return true, nil
}

func (o *projectOp) close() { o.child.close() }

func (o *projectOp) node() *PlanNode {
	return &PlanNode{
		Op:       "project",
		Detail:   o.ex.itemList(),
		EstRows:  o.ex.c.estRows,
		ActRows:  o.rows,
		Children: []*PlanNode{o.child.node()},
	}
}

// aggOp drains its child, folding every joint row into the group table;
// the groups materialize in exec.finish.
type aggOp struct {
	ex    *exec
	child op
	done  bool
}

func (o *aggOp) open() error { return o.child.open() }

func (o *aggOp) next() (bool, error) {
	if o.done {
		return false, nil
	}
	for {
		ok, err := o.child.next()
		if err != nil {
			return false, err
		}
		if !ok {
			o.done = true
			return false, nil
		}
		if err := o.ex.emit(); err != nil {
			return false, err
		}
	}
}

func (o *aggOp) close() { o.child.close() }

func (o *aggOp) node() *PlanNode {
	detail := o.ex.itemList()
	if len(o.ex.c.q.GroupBy) > 0 {
		parts := make([]string, len(o.ex.c.q.GroupBy))
		for i, g := range o.ex.c.q.GroupBy {
			parts[i] = g.String()
		}
		detail += " group by " + strings.Join(parts, ", ")
	}
	return &PlanNode{
		Op:       "aggregate",
		Detail:   detail,
		EstRows:  o.ex.c.estRows,
		ActRows:  int64(o.ex.groups.n),
		Children: []*PlanNode{o.child.node()},
	}
}

// text renders an expression of the plan with this run's parameters in
// place of its placeholders, for EXPLAIN.
func (ex *exec) text(e Expr) string { return BindParams(e, ex.params).String() }

func (ex *exec) itemList() string {
	parts := make([]string, len(ex.q.Items))
	for i, it := range ex.q.Items {
		s := ex.text(it.Expr)
		if it.Agg != AggNone {
			s = fmt.Sprintf("%s(%s)", it.Agg, s)
		}
		parts[i] = s
	}
	return strings.Join(parts, ", ")
}

// fetchRecords is the one way a statement reaches a standard table's rows:
// the records of s whose col equals key, through s's index on col, or every
// record when col is "". They land in buf, which is emptied first.
//
// A reader (mode lock.Shared) in a transaction that reads from a snapshot
// gets the versions visible there and takes no lock. Anything else gets the
// live records under locks of mode, held to commit. A scan locks the whole
// table rather than every row, which also shuts out record writers whose
// intent lock would otherwise let rows change mid-scan. A probe locks
// exactly the rows it returns. Acquiring a record lock can block behind a
// writer that replaces or deletes the row before committing; a
// copy-on-update replacement keeps the lock ID, so when a granted record
// turns out stale the probe re-runs already holding the lock that covers
// the replacement. A bounded number of retries settles unless the index
// entry churns pathologically, in which case the probe escalates to the
// table lock a scan takes, the always-correct fallback.
func fetchRecords(tx *txn.Txn, s *source, mode lock.Mode, col string, key types.Value, buf []*storage.Record) ([]*storage.Record, error) {
	buf = buf[:0]
	if mode == lock.Shared {
		if snap, me, ok := tx.SnapshotRead(); ok {
			if col == "" {
				tx.Manager().Query.SnapshotScans.Inc()
				return s.tbl.AppendVisible(buf, snap, me), nil
			}
			tx.Manager().Query.SnapshotProbes.Inc()
			recs, exact := s.tbl.LookupSnapshot(col, key, snap, me, buf)
			if !exact {
				// An update changed an indexed column's value on this
				// table, so the index (which covers head versions only)
				// could miss older versions that match. Fall back to a
				// filtered snapshot scan.
				ci := s.tbl.Schema().ColIndex(col)
				s.tbl.ScanSnapshot(snap, me, func(r *storage.Record) bool {
					if r.Value(ci).Equal(key) {
						recs = append(recs, r)
					}
					return true
				})
			}
			return recs, nil
		}
	}
	write := mode == lock.Exclusive
	if col != "" {
		const maxAttempts = 3
		for attempt := 0; attempt < maxAttempts; attempt++ {
			recs, _ := s.tbl.AppendIndexLookup(buf, col, key)
			stale := false
			for _, r := range recs {
				var err error
				if write {
					err = tx.LockRecordExclusive(s.name, r.ID())
				} else {
					err = tx.LockRecordShared(s.name, r.ID())
				}
				if err != nil {
					return nil, err
				}
				if !r.Live() {
					stale = true
					break
				}
			}
			if !stale {
				return recs, nil
			}
			buf = recs[:0]
		}
	}
	var err error
	if write {
		_, err = tx.WriteTable(s.name)
	} else {
		_, err = tx.ScanTable(s.name)
	}
	if err != nil {
		return nil, err
	}
	if col == "" {
		return s.tbl.AppendLive(buf), nil
	}
	recs, _ := s.tbl.AppendIndexLookup(buf, col, key)
	return recs, nil
}
