package query

import (
	"slices"
	"sort"

	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/types"
)

// sink is where a run's output rows go. The push loop hands it each row of
// a projection as the joint row it stands on (project) and each finished
// group of an aggregation as values (put), stopping at a LIMIT unless ORDER
// BY must see every row first; end sorts what the sink holds, cuts it to
// the LIMIT and reports how many rows there were before the cut. A run
// writes to one sink: a temp table for the callers that keep or bind the
// result (tempSink), values for the callers that want rows in a format of
// their own (valueSink), or the records an UPDATE or DELETE is to write
// (targetSink). No method takes the run's exec.
type sink interface {
	open(c *compiled, srcs []*source) error
	project(c *compiled, jr row) error
	put(row []types.Value) error
	end(c *compiled) (sorted int, err error)
}

// RowSink receives a query's output as values, one row at a time, as the
// run produces it: the embedded API's RowSlice, the server's frame
// encoder. No temp table is built and no record pinned on the way.
type RowSink interface {
	// Columns is called once, before any row, with the output columns'
	// names. The slice is the plan's: a sink copies it to keep it.
	Columns(names []string) error
	// Row takes one output row. The slice is the run's scratch: a sink
	// copies what it keeps before it returns.
	Row(row []types.Value) error
}

// RowSlice is a RowSink that keeps the rows, all of them in one value slab.
type RowSlice struct {
	Cols []string
	vals []types.Value
}

// Columns implements RowSink.
func (s *RowSlice) Columns(names []string) error {
	s.Cols = slices.Clone(names)
	return nil
}

// Row implements RowSink.
func (s *RowSlice) Row(row []types.Value) error {
	s.vals = append(s.vals, row...)
	return nil
}

// Rows returns the rows kept, each a slice of the slab; nil when the sink
// was never opened (the statement was not a query).
func (s *RowSlice) Rows() [][]types.Value {
	if s.Cols == nil {
		return nil
	}
	w := len(s.Cols)
	out := make([][]types.Value, len(s.vals)/max(w, 1))
	for i := range out {
		out[i] = s.vals[i*w : (i+1)*w : (i+1)*w]
	}
	return out
}

// tempSink builds the result as a temp table in the paper's §6.1 layout:
// one pointer per contributing standard record (pinned), computed columns
// materialized.
type tempSink struct {
	out *storage.TempTable
	// The output layout's pointer slots and materialized columns, and one
	// row's worth of scratch that AppendRow copies from.
	ptrSlots []ptrSlot
	matCols  []int // item indexes of materialized columns
	ptrBuf   []*storage.Record
	valBuf   []types.Value
}

// ptrSlot identifies one pointer of the output layout: records flow either
// directly from a standard source (tmpPtr == -1) or through a temp source's
// own pointer tmpPtr.
type ptrSlot struct {
	src    int
	tmpPtr int
}

// maxOutputReserve caps how many rows of output slab the planner's
// estimate may reserve up front: an estimate is a guess, a wrong one must
// not cost a large zeroed slab per run, and appends past the reservation
// grow geometrically anyway.
const maxOutputReserve = 1 << 10

// open builds the result temp table: schema, pointer slots, and static map.
func (t *tempSink) open(c *compiled, srcs []*source) error {
	if c.agg {
		t.out = storage.NewValueTempTable(c.out)
		return nil
	}
	// Pointer layout: share one slot per distinct record origin (paper §6.1:
	// one pointer per standard tuple contributing at least one attribute).
	srcMap := make([]storage.ColSource, len(c.q.Items))
	for i, it := range c.q.Items {
		cr, isRef := it.Expr.(*ColRef)
		if !isRef {
			srcMap[i] = storage.Materialized(len(t.matCols))
			t.matCols = append(t.matCols, i)
			continue
		}
		slot := ptrSlot{src: cr.src, tmpPtr: -1}
		off := cr.col
		if tmp := srcs[cr.src].tmp; tmp != nil {
			cs := tmp.Source(cr.col)
			if cs.Ptr < 0 {
				// Materialized in the source temp table; copy the value.
				srcMap[i] = storage.Materialized(len(t.matCols))
				t.matCols = append(t.matCols, i)
				continue
			}
			slot.tmpPtr, off = cs.Ptr, cs.Off
		}
		idx := slices.Index(t.ptrSlots, slot)
		if idx < 0 {
			idx = len(t.ptrSlots)
			t.ptrSlots = append(t.ptrSlots, slot)
		}
		srcMap[i] = storage.FromRecord(idx, off)
	}
	var err error
	if t.out, err = storage.NewTempTable(c.out, srcMap, len(t.ptrSlots)); err != nil {
		return err
	}
	t.ptrBuf = make([]*storage.Record, len(t.ptrSlots))
	t.valBuf = make([]types.Value, len(t.matCols))
	reserve := min(c.estRows, maxOutputReserve)
	if c.stopsAtLimit() {
		reserve = min(reserve, float64(c.q.Limit))
	}
	t.out.Grow(int(reserve))
	return nil
}

func (t *tempSink) project(c *compiled, jr row) (err error) {
	for i, slot := range t.ptrSlots {
		cur := &jr.cur[slot.src]
		if slot.tmpPtr < 0 {
			t.ptrBuf[i] = cur.rec
		} else {
			t.ptrBuf[i] = cur.tmp.RowPtr(cur.row, slot.tmpPtr)
		}
	}
	for i, item := range t.matCols {
		if t.valBuf[i], err = c.items[item].eval(&jr); err != nil {
			return err
		}
	}
	return t.out.AppendRow(t.ptrBuf, t.valBuf)
}

func (t *tempSink) put(row []types.Value) error { return t.out.AppendValues(row...) }

func (t *tempSink) end(c *compiled) (sorted int, err error) {
	if len(c.order) > 0 {
		t.out.Permute(c.sortOrder(t.out.Len(), t.out.At))
	}
	sorted = t.out.Len()
	if c.q.Limit > 0 {
		t.out.Truncate(c.q.Limit)
	}
	return sorted, nil
}

// valueSink hands the rows to a RowSink: a projection's row is read from
// its records into one scratch row as the loop reaches it. Only ORDER BY
// holds rows back — in one value slab, until the sort.
type valueSink struct {
	dst     RowSink
	row     []types.Value // scratch: the row being handed over
	sorting bool          // ORDER BY
	held    []types.Value // when sorting: every row so far, len(row) values each
	n       int           // rows put
}

func (s *valueSink) open(c *compiled, _ []*source) error {
	s.row = make([]types.Value, len(c.items))
	s.sorting = len(c.order) > 0
	return s.dst.Columns(c.names)
}

func (s *valueSink) project(c *compiled, jr row) (err error) {
	for i := range c.items {
		if s.row[i], err = c.items[i].eval(&jr); err != nil {
			return err
		}
	}
	return s.put(s.row)
}

// put hands row on, or holds it for ORDER BY.
func (s *valueSink) put(row []types.Value) error {
	s.n++
	if s.sorting {
		s.held = append(s.held, row...)
		return nil
	}
	return s.dst.Row(row)
}

func (s *valueSink) end(c *compiled) (sorted int, err error) {
	if !s.sorting {
		return s.n, nil
	}
	w := len(s.row)
	perm := c.sortOrder(s.n, func(i, col int) *types.Value { return &s.held[i*w+col] })
	if c.q.Limit > 0 {
		perm = perm[:min(s.n, c.q.Limit)]
	}
	for _, i := range perm {
		if err := s.dst.Row(s.held[i*w : (i+1)*w]); err != nil {
			return 0, err
		}
	}
	return s.n, nil
}

// targetSink collects a statement's targets: the records of its one table
// that its WHERE holds for, copied out of the level's record set before the
// statement writes any of them, so that a statement never sees its own
// writes. The first four fit in buf.
type targetSink struct {
	buf  [4]*storage.Record
	recs []*storage.Record
}

func (t *targetSink) open(*compiled, []*source) error {
	t.recs = t.buf[:0]
	return nil
}

func (t *targetSink) project(_ *compiled, jr row) error {
	t.recs = append(t.recs, jr.cur[0].rec)
	return nil
}

// put is never called: a statement's query does not aggregate.
func (t *targetSink) put([]types.Value) error { return nil }

func (t *targetSink) end(*compiled) (int, error) { return len(t.recs), nil }

// sortOrder returns the order of n rows under ORDER BY: a permutation of
// their numbers, stable, so rows equal on every ORDER BY column keep their
// order. at reads row i's column col.
func (c *compiled) sortOrder(n int, at func(i, col int) *types.Value) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		for _, col := range c.order {
			if cmp := types.Compare(at(perm[a], col), at(perm[b], col)); cmp != 0 {
				return cmp < 0 != c.q.Desc
			}
		}
		return false
	})
	return perm
}
