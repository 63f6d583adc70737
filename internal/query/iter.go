package query

import (
	"fmt"
	"strings"

	"github.com/stripdb/strip/internal/lock"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

// A run drives its plan as nested loops, one per level (drive): a level
// takes its row set, applies its residual predicates, and for each row that
// passes either descends to the next level or — at the innermost level —
// adds it to a chunk of rows it hands to the sink. The joint row is one
// cursor per source in exec.cur, so nothing is copied. No operator objects
// stand between the storage walk and the sink; EXPLAIN rebuilds the
// operator tree from the levels' counters after the run (explainTree).

// levelRun is one level's state in a run: its record set and what it
// counted.
type levelRun struct {
	// buf is the exec's record buffer for this level, which holds recs;
	// its length is the longest fill of this run.
	buf *[]*storage.Record
	// recs is a standard table's rows for this level: a scan's visible set,
	// collected on the run's first visit and reused for every later outer
	// row — legal because the S lock or the fixed snapshot pins it — or a
	// probe's matches for the current outer row.
	recs []*storage.Record
	// mode is how the scan read its source ("temp", "locked", "snapshot"),
	// "" until the run first reaches the level.
	mode   string
	rows   int64 // rows the access yielded
	passed int64 // rows that passed the level's residual predicates
}

// stopsAtLimit reports whether the run may stop as soon as the output
// holds LIMIT rows: nothing downstream reorders or folds them.
func (c *compiled) stopsAtLimit() bool {
	return c.q.Limit > 0 && !c.agg && len(c.q.OrderBy) == 0
}

// drive runs level pos and, through it, every level below for each of its
// rows. It reports stop once the output holds the rows a LIMIT asks for, and
// every enclosing level returns at once.
//
// The innermost level hands its passing rows to the sink a chunk at a time
// (ex.sel: their indexes in the level's row set), so the sink can fold a
// column over the chunk in a loop tight enough to keep many of the
// records' cache misses in flight at once; a chunk never holds more rows
// than a LIMIT still wants, so every level counts the rows a row-at-a-time
// run would.
//
// The virtual charges follow the rows as the paper's model counts them: a
// scan pays ScanRow per row it yields (an inner scan once per outer row,
// though its set is collected once per run), a probe IndexProbe per lookup
// (and a statement's probe FetchCursor per row it yields), and every level
// below the first JoinRow per row it yields.
func (ex *exec) drive(pos int) (stop bool, err error) {
	lp, lv := &ex.c.levels[pos], &ex.lv[pos]
	n, err := ex.open(lp, lv)
	if err != nil {
		return false, err
	}
	scanCost, joinCost := ex.fetchRow, 0.0
	if lp.probe == nil {
		scanCost = ex.model.ScanRow
	}
	if pos > 0 {
		joinCost = ex.model.JoinRow
	}
	last := pos == len(ex.lv)-1
	sel := ex.sel[:0]
	want := ex.chunk()
	var i, passed int
	for ; i < n && !stop && err == nil; i++ {
		ex.tx.Charge(scanCost)
		ex.tx.Charge(joinCost)
		if ex.prof != nil {
			ex.prof.RowsScanned++
		}
		// The innermost level's cursor matters here only to its filter;
		// the sink positions it again for the rows it evaluates.
		if !last || len(lp.filter) > 0 {
			ex.position(lp, lv, i)
		}
		if len(lp.filter) > 0 {
			var pass bool
			if pass, err = allHold(lp.filter, &ex.row); !pass {
				continue
			}
		}
		passed++
		if !last {
			stop, err = ex.drive(pos + 1)
			continue
		}
		if sel = append(sel, int32(i)); len(sel) == want {
			stop, err = ex.sink(lp, lv, sel)
			sel, want = sel[:0], ex.chunk()
		}
	}
	if len(sel) > 0 && !stop && err == nil {
		stop, err = ex.sink(lp, lv, sel)
	}
	lv.rows += int64(i)
	lv.passed += int64(passed)
	return stop, err
}

// chunk is how many rows the innermost level may hand the sink at once: a
// full ex.sel, or what a LIMIT still wants.
func (ex *exec) chunk() int {
	if ex.c.stopsAtLimit() {
		return min(len(ex.sel), ex.q.Limit-int(ex.matched))
	}
	return len(ex.sel)
}

// position points the level's cursor at row i of its row set.
func (ex *exec) position(lp *levelPlan, lv *levelRun, i int) {
	c := &ex.cur[lp.src]
	if c.tmp != nil {
		c.row = i
	} else {
		c.rec = lv.recs[i]
	}
}

// sink hands the innermost level's passing rows sel to the output: a
// projection emits them one at a time, an aggregation folds the chunk.
func (ex *exec) sink(lp *levelPlan, lv *levelRun, sel []int32) (bool, error) {
	if ex.groups != nil {
		return false, ex.fold(lp, lv, sel)
	}
	for _, i := range sel {
		ex.position(lp, lv, int(i))
		if stop, err := ex.emit(); stop || err != nil {
			return stop, err
		}
	}
	return false, nil
}

// open positions a level for the current outer row and returns how many
// rows it has: a temp table's length, a scan's record set, or a probe's
// matches for the key the outer cursors give. Standard tables are read
// through fetchRecords: under the table S lock (a scan) or record S locks
// (a probe) for locked reads, lock-free at the transaction's snapshot
// otherwise. The set is collected under the table latch and visited only
// after the latch is released: with no table S locks serializing writers on
// the snapshot path, a latch held across the levels below (which may latch
// another table, or this one again) can deadlock against a queued writer
// (RWMutex is writer-preferring).
func (ex *exec) open(lp *levelPlan, lv *levelRun) (int, error) {
	s := ex.srcs[lp.src]
	if lp.probe != nil {
		key, err := lp.probe.key.eval(&ex.row)
		if err != nil {
			return 0, err
		}
		ex.tx.Charge(ex.model.IndexProbe)
		return lv.fetch(ex.tx, s, ex.mode, lp.probe.col, key)
	}
	if s.tmp != nil {
		lv.mode = "temp"
		return s.tmp.Len(), nil
	}
	if lv.mode != "" {
		return len(lv.recs), nil
	}
	lv.mode = "locked"
	if ex.mode == lock.Shared && ex.tx.SnapshotReads() {
		lv.mode = "snapshot"
	}
	return lv.fetch(ex.tx, s, ex.mode, "", types.Value{})
}

// fetch reads the level's records into its buffer.
func (lv *levelRun) fetch(tx *txn.Txn, s *source, mode lock.Mode, col string, key types.Value) (int, error) {
	var err error
	lv.recs, err = fetchRecords(tx, s, mode, col, key, *lv.buf)
	if len(lv.recs) >= len(*lv.buf) {
		*lv.buf = lv.recs // a longer fill, or the buffer grew
	}
	return len(lv.recs), err
}

// release empties the levels' buffers, each cleared over the longest
// prefix the run filled, so that a pooled exec pins no record version the
// table has since dropped.
func (ex *exec) release() {
	for i := range ex.lv {
		b := ex.lv[i].buf
		clear(*b)
		*b = (*b)[:0]
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
