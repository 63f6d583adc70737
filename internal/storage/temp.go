package storage

import (
	"fmt"
	"slices"
	"sync"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/types"
)

// ColSource tells a temporary table where one of its columns lives: either
// at an offset inside one of the row's contributing standard records, or in
// the row's materialized value array (aggregates, computed expressions, and
// timestamps, which exist nowhere else and must be stored; paper §6.1).
type ColSource struct {
	// Ptr is the position of the contributing record in the row's pointer
	// array, or -1 for a materialized column.
	Ptr int
	// Off is the column offset within the contributing record, or the index
	// into the row's materialized value array.
	Off int
}

// Materialized marks a column as stored rather than pointed to.
func Materialized(off int) ColSource { return ColSource{Ptr: -1, Off: off} }

// FromRecord marks a column as resolved through contributing record ptr at
// column offset off.
func FromRecord(ptr, off int) ColSource { return ColSource{Ptr: ptr, Off: off} }

// TempTable is a temporary table in the paper's §6.1 representation: rows
// store one pointer per contributing standard record (only for relations
// that contribute at least one attribute) plus materialized values, and a
// static map resolves each column. Temporary tables back intermediate query
// results, transition tables, and bound tables.
//
// Rows live in two flat slabs — row i's pointers at ptrs[i*nPtrs:] and its
// materialized values at vals[i*nVals:] — so appending a row allocates
// nothing beyond the slabs' amortized growth.
//
// Rows pin their contributing records (reference counting) so that the
// state observed at bind time survives later updates to the base tables.
// Call Retire when the table is no longer needed.
type TempTable struct {
	schema  *catalog.Schema
	srcMap  []ColSource
	nPtrs   int
	nVals   int
	n       int
	ptrs    []*Record
	vals    []types.Value
	retired bool
}

// NewTempTable creates a temporary table with the given schema and static
// column map. nPtrs is the number of contributing-record pointers per row.
func NewTempTable(schema *catalog.Schema, srcMap []ColSource, nPtrs int) (*TempTable, error) {
	if len(srcMap) != schema.NumCols() {
		return nil, fmt.Errorf("storage: temp table %s: srcMap has %d entries for %d columns",
			schema.Name(), len(srcMap), schema.NumCols())
	}
	nVals := 0
	for i, cs := range srcMap {
		if cs.Ptr == -1 {
			if cs.Off != nVals {
				return nil, fmt.Errorf("storage: temp table %s: materialized column %d must use value slot %d, got %d",
					schema.Name(), i, nVals, cs.Off)
			}
			nVals++
			continue
		}
		if cs.Ptr < 0 || cs.Ptr >= nPtrs {
			return nil, fmt.Errorf("storage: temp table %s: column %d references pointer %d of %d",
				schema.Name(), i, cs.Ptr, nPtrs)
		}
	}
	return &TempTable{schema: schema, srcMap: srcMap, nPtrs: nPtrs, nVals: nVals}, nil
}

// NewValueTempTable creates a temporary table whose columns are all
// materialized (used for aggregate/computed result sets).
func NewValueTempTable(schema *catalog.Schema) *TempTable {
	srcMap := make([]ColSource, schema.NumCols())
	for i := range srcMap {
		srcMap[i] = Materialized(i)
	}
	tt, err := NewTempTable(schema, srcMap, 0)
	if err != nil {
		panic(err) // unreachable: the map is valid by construction
	}
	return tt
}

// Schema returns the temp table's schema.
func (tt *TempTable) Schema() *catalog.Schema { return tt.schema }

// Source returns the static-map entry for a column, letting the query
// engine pass pointers through when binding results over temp tables.
func (tt *TempTable) Source(col int) ColSource { return tt.srcMap[col] }

// RowPtr returns the ptrIdx-th contributing record of row rowIdx.
func (tt *TempTable) RowPtr(rowIdx, ptrIdx int) *Record { return tt.ptrs[rowIdx*tt.nPtrs+ptrIdx] }

// Len returns the row count.
func (tt *TempTable) Len() int { return tt.n }

// NumPtrs returns the number of record pointers per row.
func (tt *TempTable) NumPtrs() int { return tt.nPtrs }

// Grow makes room for rows more rows, so a producer that knows roughly how
// many it will append (the planner's estimate) skips the first few slab
// doublings; appends past it still grow geometrically.
func (tt *TempTable) Grow(rows int) {
	tt.ptrs = slices.Grow(tt.ptrs, rows*tt.nPtrs)
	tt.vals = slices.Grow(tt.vals, rows*tt.nVals)
}

// AppendRow adds a row, copying ptrs and vals into the slabs (the caller
// may reuse both). ptrs must have NumPtrs entries and vals must have one
// entry per materialized column. The contributing records are pinned.
func (tt *TempTable) AppendRow(ptrs []*Record, vals []types.Value) error {
	if tt.retired {
		return fmt.Errorf("storage: append to retired temp table %s", tt.schema.Name())
	}
	if len(ptrs) != tt.nPtrs {
		return fmt.Errorf("storage: temp table %s: row has %d pointers, want %d",
			tt.schema.Name(), len(ptrs), tt.nPtrs)
	}
	if len(vals) != tt.nVals {
		return fmt.Errorf("storage: temp table %s: row has %d values, want %d",
			tt.schema.Name(), len(vals), tt.nVals)
	}
	for _, r := range ptrs {
		r.Pin()
	}
	tt.ptrs = append(tt.ptrs, ptrs...)
	tt.vals = append(tt.vals, vals...)
	tt.n++
	return nil
}

// AppendValues adds a fully materialized row; valid only for tables created
// with NewValueTempTable.
func (tt *TempTable) AppendValues(vals ...types.Value) error {
	return tt.AppendRow(nil, vals)
}

// At resolves column col of row rowIdx through the static map and returns
// the value in place — inside the value slab or the contributing record.
// Callers must not write through the pointer.
func (tt *TempTable) At(rowIdx, col int) *types.Value {
	cs := tt.srcMap[col]
	if cs.Ptr == -1 {
		return &tt.vals[rowIdx*tt.nVals+cs.Off]
	}
	return tt.ptrs[rowIdx*tt.nPtrs+cs.Ptr].At(cs.Off)
}

// Value resolves column col of row rowIdx through the static map.
func (tt *TempTable) Value(rowIdx, col int) types.Value { return *tt.At(rowIdx, col) }

// Row materializes row rowIdx as a value slice.
func (tt *TempTable) Row(rowIdx int) []types.Value {
	out := make([]types.Value, len(tt.srcMap))
	for c := range out {
		out[c] = *tt.At(rowIdx, c)
	}
	return out
}

// Scan visits rows in order, stopping when fn returns false.
func (tt *TempTable) Scan(fn func(rowIdx int) bool) {
	for i := 0; i < tt.n; i++ {
		if !fn(i) {
			return
		}
	}
}

// AppendFrom appends every row of other into tt. Both tables must have been
// defined identically (same column names/kinds and same static map) — the
// precondition STRIP imposes on bound tables of rules executing the same
// user function (paper §2). Appended rows pin their records again on behalf
// of tt.
func (tt *TempTable) AppendFrom(other *TempTable) error {
	if tt.retired {
		return fmt.Errorf("storage: append to retired temp table %s", tt.schema.Name())
	}
	if !tt.schema.Equal(other.schema) {
		return fmt.Errorf("storage: temp tables %s and %s are not defined identically",
			tt.schema.Name(), other.schema.Name())
	}
	if tt.nPtrs != other.nPtrs || !slices.Equal(tt.srcMap, other.srcMap) {
		return fmt.Errorf("storage: temp tables %s and %s have different static maps",
			tt.schema.Name(), other.schema.Name())
	}
	for _, r := range other.ptrs {
		r.Pin()
	}
	tt.ptrs = append(tt.ptrs, other.ptrs...)
	tt.vals = append(tt.vals, other.vals...)
	tt.n += other.n
	return nil
}

// Copy returns a new table holding tt's rows, pinned again on its behalf.
func (tt *TempTable) Copy() *TempTable {
	cp := tt.Clone()
	for _, r := range tt.ptrs {
		r.Pin()
	}
	cp.n, cp.ptrs, cp.vals = tt.n, slices.Clone(tt.ptrs), slices.Clone(tt.vals)
	return cp
}

// Split moves tt's rows into len(counts) new tables — row i goes to table
// part[i], rows keeping their order; counts[p] says how many rows part p
// gets — and retires tt. The rows' record pins move with them, and each new
// table's slabs hold exactly its rows: this is the Appendix-A partitioning
// of a bound table by unique-column values, done in one pass. The new
// tables share one allocation.
func (tt *TempTable) Split(part, counts []int) []TempTable {
	out := make([]TempTable, len(counts))
	// One slab of each kind, carved by part: the carves never grow (a
	// later append to one reallocates it, as for any full slice).
	ptrs := make([]*Record, len(tt.ptrs))
	vals := make([]types.Value, len(tt.vals))
	po, vo := 0, 0
	for p := range out {
		pn, vn := counts[p]*tt.nPtrs, counts[p]*tt.nVals
		out[p] = TempTable{schema: tt.schema, srcMap: tt.srcMap, nPtrs: tt.nPtrs, nVals: tt.nVals,
			ptrs: ptrs[po : po : po+pn], vals: vals[vo : vo : vo+vn]}
		po, vo = po+pn, vo+vn
	}
	for i, p := range part[:tt.n] {
		o := &out[p]
		o.ptrs = append(o.ptrs, tt.rowPtrs(i)...)
		o.vals = append(o.vals, tt.rowVals(i)...)
		o.n++
	}
	tt.retired, tt.n, tt.ptrs, tt.vals = true, 0, nil, nil
	return out
}

func (tt *TempTable) rowPtrs(i int) []*Record { return tt.ptrs[i*tt.nPtrs : (i+1)*tt.nPtrs] }

func (tt *TempTable) rowVals(i int) []types.Value { return tt.vals[i*tt.nVals : (i+1)*tt.nVals] }

// Clone returns an empty temp table with the same schema and static map.
func (tt *TempTable) Clone() *TempTable {
	return &TempTable{schema: tt.schema, srcMap: tt.srcMap, nPtrs: tt.nPtrs, nVals: tt.nVals}
}

// Retire releases every record reference held by the table. After Retire the
// table is empty and further appends fail. Retiring twice is a no-op.
func (tt *TempTable) Retire() {
	if tt.retired {
		return
	}
	tt.retired = true
	for _, r := range tt.ptrs {
		r.Unpin()
	}
	tt.n, tt.ptrs, tt.vals = 0, nil, nil
}

// Retired reports whether the table has been retired.
func (tt *TempTable) Retired() bool { return tt.retired }

// Truncate drops every row past the first n, releasing the record
// references the dropped rows pinned (the query engine's LIMIT).
func (tt *TempTable) Truncate(n int) {
	if n < 0 || n >= tt.n {
		return
	}
	dropped := tt.ptrs[n*tt.nPtrs:]
	for _, r := range dropped {
		r.Unpin()
	}
	// Zero the tails so the slabs do not keep dropped records and strings
	// reachable.
	clear(dropped)
	clear(tt.vals[n*tt.nVals:])
	tt.n, tt.ptrs, tt.vals = n, tt.ptrs[:n*tt.nPtrs], tt.vals[:n*tt.nVals]
}

// Permute reorders the rows so that row i is the old row perm[i], a
// permutation of the row numbers (the query engine's ORDER BY), rewriting
// the slabs once.
func (tt *TempTable) Permute(perm []int) {
	ptrs := make([]*Record, 0, len(tt.ptrs))
	vals := make([]types.Value, 0, len(tt.vals))
	for _, i := range perm {
		ptrs = append(ptrs, tt.rowPtrs(i)...)
		vals = append(vals, tt.rowVals(i)...)
	}
	tt.ptrs, tt.vals = ptrs, vals
}

// Store is the thread-safe registry of standard tables, keyed by name. It
// pairs with the catalog: the catalog holds schemas, the store holds data.
type Store struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewStore creates an empty store.
func NewStore() *Store { return &Store{tables: make(map[string]*Table)} }

// Create registers a table for the schema.
func (s *Store) Create(schema *catalog.Schema) (*Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[schema.Name()]; ok {
		return nil, fmt.Errorf("storage: table %q already exists", schema.Name())
	}
	t := NewTable(schema)
	s.tables[schema.Name()] = t
	return t, nil
}

// Drop removes a table from the store.
func (s *Store) Drop(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; !ok {
		return fmt.Errorf("storage: table %q does not exist", name)
	}
	delete(s.tables, name)
	return nil
}

// Get returns the named table.
func (s *Store) Get(name string) (*Table, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	return t, ok
}

// Tables returns the current table set (for version GC and stats sweeps).
func (s *Store) Tables() []*Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		out = append(out, t)
	}
	return out
}
