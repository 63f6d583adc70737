package storage

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/fault"
	"github.com/stripdb/strip/internal/index"
	"github.com/stripdb/strip/internal/types"
)

// Stats summarizes a table's lifetime activity.
type Stats struct {
	Inserts int64
	Deletes int64
	Updates int64
	// RetiredHeld counts records that are unlinked from the table but still
	// held alive by bound-table references.
	RetiredHeld int64
	// Rows is the current live row count.
	Rows int64
	// VersionsRetained counts superseded or tombstoned versions kept for
	// snapshot readers (chain tails plus retired heads), as of the last GC
	// or version-mutating operation.
	VersionsRetained int64
}

// Table is a standard STRIP table: an ordered slot array of records plus
// optional secondary indexes. The table latch protects structure; isolation
// between transactions is the lock manager's job.
type Table struct {
	schema *catalog.Schema

	mu sync.RWMutex
	// rows holds the live records in scan order, with holes (nil) where
	// records were unlinked; see link, unlink and compact.
	rows     []*Record
	holes    int
	indexes  map[string]index.Index // column name -> index
	idxKinds map[string]index.Kind  // column name -> index kind (for checkpoints)

	// retired holds tombstoned ex-head records (deleted rows) retained so
	// snapshot scans older than the delete still see them. GC removes
	// entries once no active snapshot can reach them.
	retired map[*Record]struct{}
	// retiredIdx mirrors each secondary index over the retired set, so a
	// snapshot probe pays O(matching retired rows) instead of scanning the
	// whole set — which grows with every deleted-but-unreclaimed row
	// between GC passes under delete-heavy churn.
	retiredIdx map[string]index.Index
	// dirty lists every live head that may chain to an older version: a
	// head enters when Update (or a rollback relinking it) gives it one and
	// leaves when a GC pass finds it unlinked or its chain cut to nothing.
	// Version GC walks this list and the retired set, never the table, so a
	// pass costs what was written since the last one. Record.inDirty keeps
	// entries unique.
	dirty []*Record
	// versions counts retained non-head versions plus retired heads, as of
	// the last GC pass (a statistic, not an invariant).
	versions int64

	// nextRec allocates stable record lock IDs (see Record.ID). Atomic so
	// transactions can reserve an ID — and lock it — before linking the
	// record (lock-before-visible insert protocol in internal/txn).
	nextRec atomic.Uint64

	// keyChurn counts updates that changed the value of an indexed column.
	// While zero, every version in a chain shares the head's indexed
	// values, so snapshot index probes are exact; once nonzero, snapshot
	// probes fall back to a filtered scan. STRIP workloads index immutable
	// keys (symbol), so the fast path is the norm.
	keyChurn atomic.Int64

	stats struct {
		inserts, deletes, updates int64
		retiredHeld               atomic.Int64
	}
}

// NewTable creates an empty table for the given schema.
func NewTable(schema *catalog.Schema) *Table {
	return &Table{
		schema:     schema,
		indexes:    make(map[string]index.Index),
		idxKinds:   make(map[string]index.Kind),
		retired:    make(map[*Record]struct{}),
		retiredIdx: make(map[string]index.Index),
	}
}

// Schema returns the table's schema.
func (t *Table) Schema() *catalog.Schema { return t.schema }

// Name returns the table name.
func (t *Table) Name() string { return t.schema.Name() }

// Len returns the live row count.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live()
}

// CreateIndex builds an index of the given kind on the named column,
// populating it from existing rows. One index per column is supported.
func (t *Table) CreateIndex(column string, kind index.Kind) error {
	ci := t.schema.ColIndex(column)
	if ci < 0 {
		return fmt.Errorf("storage: table %s has no column %q", t.Name(), column)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.indexes[column]; ok {
		return fmt.Errorf("storage: table %s already has an index on %q", t.Name(), column)
	}
	ix := index.New(kind)
	for _, r := range t.rows {
		if r != nil {
			ix.Insert(r.vals[ci], r)
		}
	}
	t.indexes[column] = ix
	t.idxKinds[column] = kind
	rix := index.New(kind)
	for r := range t.retired {
		rix.Insert(r.vals[ci], r)
	}
	t.retiredIdx[column] = rix
	return nil
}

// IndexDef names one secondary index; checkpoints persist these so recovery
// can rebuild the index set.
type IndexDef struct {
	Column string
	Kind   index.Kind
}

// IndexDefs returns the table's index definitions, sorted by column.
func (t *Table) IndexDefs() []IndexDef {
	t.mu.RLock()
	defer t.mu.RUnlock()
	defs := make([]IndexDef, 0, len(t.idxKinds))
	for col, k := range t.idxKinds {
		defs = append(defs, IndexDef{Column: col, Kind: k})
	}
	sort.Slice(defs, func(i, j int) bool { return defs[i].Column < defs[j].Column })
	return defs
}

// HasIndex reports whether the column is indexed.
func (t *Table) HasIndex(column string) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	_, ok := t.indexes[column]
	return ok
}

// IndexStats reports the distinct-key count of every indexed column.
// The query planner prices index probes with these: expected matches
// per probe is Len()/keys.
func (t *Table) IndexStats() map[string]int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.indexes) == 0 {
		return nil
	}
	stats := make(map[string]int, len(t.indexes))
	for col, ix := range t.indexes {
		stats[col] = ix.Keys()
	}
	return stats
}

// PlanStats reports the statistics cached query plans are keyed on: the
// live row count and the number of secondary indexes. Cheap enough to
// call on every statement.
func (t *Table) PlanStats() (rows, indexes int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live(), len(t.indexes)
}

// ReserveID allocates a record lock ID without creating a record, so a
// transaction can X-lock (table, id) before the row becomes visible via
// InsertReserved. Reserved IDs that are never used are simply skipped.
func (t *Table) ReserveID() uint64 { return t.nextRec.Add(1) }

// Insert appends a new record with the given values. This is the
// non-transactional loader path: the record is stamped with BootstrapLSN
// before it is linked, so it is visible to every snapshot. Transactional
// inserts go through InsertReserved, which leaves the version unstamped
// (invisible to snapshots) until commit.
func (t *Table) Insert(vals []types.Value) (*Record, error) {
	return t.insertReserved(t.ReserveID(), vals, BootstrapLSN)
}

// InsertReserved appends a new record under a previously reserved lock ID
// (see ReserveID).
func (t *Table) InsertReserved(id uint64, vals []types.Value) (*Record, error) {
	return t.insertReserved(id, vals, 0)
}

func (t *Table) insertReserved(id uint64, vals []types.Value, createLSN uint64) (*Record, error) {
	if err := t.schema.CheckRow(vals); err != nil {
		return nil, err
	}
	if fault.Armed() {
		if err := fault.ErrorAt(fault.StorageAllocFail); err != nil {
			return nil, fmt.Errorf("storage: allocate record in %s: %w", t.schema.Name(), err)
		}
	}
	r := t.newRecord(id, vals, nil)
	if createLSN != 0 {
		r.createLSN.Store(createLSN)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.link(r)
	t.stats.inserts++
	for col, ix := range t.indexes {
		ix.Insert(r.vals[t.schema.ColIndex(col)], r)
	}
	return r, nil
}

// Delete unlinks a record from the table. The record carries a pending
// tombstone (stamped with the deleter's LSN at commit) and moves to the
// retired set so snapshot readers older than the delete still see it.
func (t *Table) Delete(r *Record) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.deleteLocked(r); err != nil {
		return err
	}
	r.deleteLSN.Store(PendingLSN)
	t.addRetired(r)
	return nil
}

// addRetired parks a tombstoned ex-head in the retired set and its
// per-column indexes. Caller holds the table latch exclusively.
func (t *Table) addRetired(r *Record) {
	t.retired[r] = struct{}{}
	for col, ix := range t.retiredIdx {
		ix.Insert(r.vals[t.schema.ColIndex(col)], r)
	}
}

// dropRetired removes a record from the retired set and its per-column
// indexes. Caller holds the table latch exclusively.
func (t *Table) dropRetired(r *Record) {
	delete(t.retired, r)
	for col, ix := range t.retiredIdx {
		ix.Delete(r.vals[t.schema.ColIndex(col)], r)
	}
}

func (t *Table) deleteLocked(r *Record) error {
	if r.table != t {
		return fmt.Errorf("storage: record does not belong to table %s", t.Name())
	}
	if r.unlinked.Load() {
		return fmt.Errorf("storage: record already deleted from %s", t.Name())
	}
	t.unlink(r)
	t.stats.deletes++
	for col, ix := range t.indexes {
		ix.Delete(r.vals[t.schema.ColIndex(col)], r)
	}
	r.unlinked.Store(true)
	if r.refs.Load() > 0 && r.retiredCounted.CompareAndSwap(false, true) {
		t.stats.retiredHeld.Add(1)
		// A concurrent Unpin may have dropped the last reference between
		// the refs check and the CAS; its own CAS(true,false) lost to the
		// then-false flag, so re-check and undo rather than leave a record
		// with zero pins counted until the next Pin/Unpin cycle.
		if r.refs.Load() == 0 && r.retiredCounted.CompareAndSwap(true, false) {
			t.stats.retiredHeld.Add(-1)
		}
	}
	return nil
}

// Update replaces a record with a new one carrying the given values
// (copy-on-update, paper §6.1): the old record is unlinked but preserved for
// any bound tables referencing it. It returns the new record.
func (t *Table) Update(r *Record, vals []types.Value) (*Record, error) {
	if err := t.schema.CheckRow(vals); err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.deleteLocked(r); err != nil {
		return nil, err
	}
	// deleteLocked counted a delete; reclassify as an update.
	t.stats.deletes--
	t.stats.updates++
	// The replacement inherits the old record's lock ID so a record lock on
	// (table, id) covers the row across copy-on-update versions, and chains
	// to it so snapshot readers older than this update's commit still find
	// the superseded version.
	nr := t.newRecord(r.id, vals, r)
	t.markDirty(nr)
	t.link(nr)
	for col, ix := range t.indexes {
		ci := t.schema.ColIndex(col)
		ix.Insert(nr.vals[ci], nr)
		if !nr.vals[ci].Equal(r.vals[ci]) {
			t.keyChurn.Add(1)
		}
	}
	return nr, nil
}

// Relink restores a previously unlinked record (transaction rollback of a
// delete). Any pending tombstone is erased and the record leaves the
// retired set.
func (t *Table) Relink(r *Record) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.relinkLocked(r)
}

func (t *Table) relinkLocked(r *Record) error {
	if r.table != t {
		return fmt.Errorf("storage: record does not belong to table %s", t.Name())
	}
	if !r.unlinked.Load() {
		return fmt.Errorf("storage: record is not deleted")
	}
	if r.retiredCounted.CompareAndSwap(true, false) {
		t.stats.retiredHeld.Add(-1)
	}
	r.unlinked.Store(false)
	r.deleteLSN.Store(0)
	t.dropRetired(r)
	t.link(r)
	for col, ix := range t.indexes {
		ix.Insert(r.vals[t.schema.ColIndex(col)], r)
	}
	if r.older != nil {
		// A GC pass while r was unlinked may have taken it off the list.
		t.markDirty(r)
	}
	return nil
}

// UndoUpdate rolls back Update(old) = repl in one latch hold: the
// never-committed copy is unlinked and cut loose — no chain, not retired, so
// no snapshot walk can reach it or, through it, reach old a second time —
// and old is relinked as the row's head. Indexed-column churn the update
// counted is uncounted, so exact snapshot index probes stay valid.
func (t *Table) UndoUpdate(old, repl *Record) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if repl.older != old {
		return fmt.Errorf("storage: record in %s is not the update's copy of the given original", t.Name())
	}
	if err := t.deleteLocked(repl); err != nil {
		return err
	}
	repl.deleteLSN.Store(PendingLSN)
	repl.older = nil
	for col := range t.indexes {
		ci := t.schema.ColIndex(col)
		if !repl.vals[ci].Equal(old.vals[ci]) {
			t.keyChurn.Add(-1)
		}
	}
	return t.relinkLocked(old)
}

// markDirty enters a head into the GC work list. Caller holds the table
// latch exclusively.
func (t *Table) markDirty(r *Record) {
	if !r.inDirty {
		r.inDirty = true
		t.dirty = append(t.dirty, r)
	}
}

// link appends r at the end of the scan order (an insert, an update's
// replacement and a rollback's relink alike), as tail insertion into a
// linked list would. Caller holds the table latch exclusively.
func (t *Table) link(r *Record) {
	r.slot = len(t.rows)
	t.rows = append(t.rows, r)
}

// unlink leaves a hole at r's slot, compacting the array once the holes
// pass half of it. Caller holds the table latch exclusively.
func (t *Table) unlink(r *Record) {
	t.rows[r.slot] = nil
	t.holes++
	if t.holes > len(t.rows)/2 {
		t.compact()
	}
}

// compact squeezes the holes out of rows, keeping the live records' order.
func (t *Table) compact() {
	n := 0
	for _, r := range t.rows {
		if r != nil {
			r.slot = n
			t.rows[n] = r
			n++
		}
	}
	clear(t.rows[n:])
	t.rows, t.holes = t.rows[:n], 0
}

// live is the live row count. Caller holds the table latch.
func (t *Table) live() int { return len(t.rows) - t.holes }

// noteRetired adjusts the retired-but-held count. Callers serialize through
// Record.retiredCounted CAS transitions, so the counter itself needs no
// latch (Pin runs inside snapshot scans that hold the latch shared).
func (t *Table) noteRetired(delta int64) {
	t.stats.retiredHeld.Add(delta)
}

// AppendLive appends the live records in scan order, sizing dst once under
// the latch. Scan leaves collect with it and visit the records only after
// the latch is released.
func (t *Table) AppendLive(dst []*Record) []*Record {
	t.mu.RLock()
	defer t.mu.RUnlock()
	dst = slices.Grow(dst, t.live())
	for _, r := range t.rows {
		if r != nil {
			dst = append(dst, r)
		}
	}
	return dst
}

// Scan visits live records in scan order while holding the table latch in
// shared mode. The walk stops when fn returns false.
func (t *Table) Scan(fn func(*Record) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, r := range t.rows {
		if r != nil && !fn(r) {
			return
		}
	}
}

// IndexLookup returns the live records whose indexed column equals v.
// ok is false if the column has no index.
func (t *Table) IndexLookup(column string, v types.Value) (recs []*Record, ok bool) {
	return t.AppendIndexLookup(nil, column, v)
}

// AppendIndexLookup is IndexLookup appending into dst, so a caller probing
// in a loop reuses one buffer.
func (t *Table) AppendIndexLookup(dst []*Record, column string, v types.Value) (recs []*Record, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix, found := t.indexes[column]
	if !found {
		return dst, false
	}
	ci := t.schema.ColIndex(column)
	key, match := t.probeKey(ci, v)
	if !match {
		return dst, true
	}
	base := len(dst)
	refs := ix.Lookup(key)
	dst = slices.Grow(dst, len(refs))
	for _, ref := range refs {
		dst = append(dst, ref.(*Record))
	}
	return t.checkProbeLocked(ci, key, dst, base), true
}

// probeKey brings a probe key to the kind of the indexed column ci, so that
// a hash index (exact Value equality) agrees with a scan (INT and FLOAT
// compare numerically): an INT key widens on a FLOAT column, as coerceRow
// widens stored values; a FLOAT key on an INT column becomes the INT it holds
// exactly, and matches nothing if it holds none.
func (t *Table) probeKey(ci int, key types.Value) (_ types.Value, match bool) {
	switch kind := t.schema.Col(ci).Kind; {
	case kind == types.KindFloat && key.Kind() == types.KindInt:
		return types.Float(float64(key.Int())), true
	case kind == types.KindInt && key.Kind() == types.KindFloat:
		f := key.Float()
		return types.Int(int64(f)), f == math.Trunc(f) && f >= -(1<<63) && f < 1<<63
	}
	return key, true
}

// checkProbeLocked discards probe results dst[base:] whose indexed column ci
// does not hold the probed key — a corrupt index entry — and counts them.
// The check always runs (one value compare per returned record): it is the
// detection side of the storage.index_corrupt fault point, turning silent
// wrong-row results into a counted, self-healed event. Caller holds t.mu.
func (t *Table) checkProbeLocked(ci int, key types.Value, dst []*Record, base int) []*Record {
	dst = t.corruptProbeLocked(ci, key, dst)
	out := dst[:base]
	for _, r := range dst[base:] {
		if r.vals[ci].Equal(key) {
			out = append(out, r)
		} else {
			noteIndexCorruption()
		}
	}
	return out
}

// corruptProbeLocked models a corrupted index bucket when the
// storage.index_corrupt fault point is armed: the probe result gains one
// live record whose key does not match the probe — the kind of dangling
// entry a torn index update would leave. Caller holds t.mu.
func (t *Table) corruptProbeLocked(ci int, key types.Value, recs []*Record) []*Record {
	if !fault.Armed() || !fault.Should(fault.IndexCorruptRow) {
		return recs
	}
	for _, r := range t.rows {
		if r != nil && !r.vals[ci].Equal(key) {
			return append(recs, r)
		}
	}
	return recs
}

// Stats returns a snapshot of the table's statistics.
func (t *Table) Stats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return Stats{
		Inserts:          t.stats.inserts,
		Deletes:          t.stats.deletes,
		Updates:          t.stats.updates,
		RetiredHeld:      t.stats.retiredHeld.Load(),
		Rows:             int64(t.live()),
		VersionsRetained: t.versions,
	}
}

// ScanSnapshot visits what AppendVisible(nil, snap, me) collects, in its
// order, after the latch is released. The walk stops when fn returns false.
func (t *Table) ScanSnapshot(snap uint64, me int64, fn func(*Record) bool) {
	for _, v := range t.AppendVisible(nil, snap, me) {
		if !fn(v) {
			return
		}
	}
}

// AppendVisible appends the newest version of each row visible at snapshot
// LSN snap, ignoring record locks. me is the reading transaction's id, for
// read-your-own-writes (0 for pure snapshot readers). The walk covers the
// live rows in scan order, then the retired set (rows whose delete
// committed after snap), chasing each version chain to the first visible
// version. dst is sized once under the latch (live rows plus the retired
// set bound the visible set).
func (t *Table) AppendVisible(dst []*Record, snap uint64, me int64) []*Record {
	t.mu.RLock()
	defer t.mu.RUnlock()
	dst = slices.Grow(dst, t.live()+len(t.retired))
	for _, r := range t.rows {
		if v := visibleVersion(r, snap, me); v != nil {
			dst = append(dst, v)
		}
	}
	for r := range t.retired {
		if v := visibleVersion(r, snap, me); v != nil {
			dst = append(dst, v)
		}
	}
	return dst
}

// visibleVersion walks head's version chain newest-to-oldest and returns
// the first version visible at (snap, me), or nil (also for a nil head, a
// hole in the row array). Every chain member below the head is unlinked —
// rollback relinks a version only after cutting its successor loose
// (UndoUpdate) — so each row is reached through exactly one head.
func visibleVersion(head *Record, snap uint64, me int64) *Record {
	for v := head; v != nil; v = v.older {
		if v.VisibleAt(snap, me) {
			return v
		}
	}
	return nil
}

// LookupSnapshot returns the versions of rows with indexed column = key
// visible at (snap, me), without locks. ok is false when the column has no
// index or when an update has ever changed an indexed column's value on
// this table (the index only covers head versions, so probe results would
// be incomplete) — callers then fall back to a filtered ScanSnapshot. The
// retired set is always checked: deleted rows leave the index immediately
// but remain visible to older snapshots. Results are appended to dst, so a
// caller probing in a loop reuses one buffer.
func (t *Table) LookupSnapshot(column string, key types.Value, snap uint64, me int64, dst []*Record) (recs []*Record, ok bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ix, found := t.indexes[column]
	if !found || t.keyChurn.Load() != 0 {
		return dst, false
	}
	ci := t.schema.ColIndex(column)
	key, match := t.probeKey(ci, key)
	if !match {
		return dst, true
	}
	base := len(dst)
	for _, ref := range ix.Lookup(key) {
		if v := visibleVersion(ref.(*Record), snap, me); v != nil {
			dst = append(dst, v)
		}
	}
	if len(t.retired) > 0 {
		for _, ref := range t.retiredIdx[column].Lookup(key) {
			if v := visibleVersion(ref.(*Record), snap, me); v != nil {
				dst = append(dst, v)
			}
		}
	}
	// Versions never change indexed columns while keyChurn is zero (the
	// guard above), so validating the returned versions against the probed
	// key is exact here too.
	return t.checkProbeLocked(ci, key, dst, base), true
}

// KeyChurn reports how many updates changed an indexed column's value.
func (t *Table) KeyChurn() int64 { return t.keyChurn.Load() }

// ReleaseVersions garbage-collects versions no active snapshot can reach.
// horizon is the oldest LSN any current or future snapshot may hold: a
// chain is truncated below its newest version committed at or before
// horizon, and a retired head is dropped once its delete committed at or
// before horizon. Only the dirty heads and the retired set are visited —
// every other row has no older version to release. Returns the number of
// versions dropped and updates the retained-version statistic.
func (t *Table) ReleaseVersions(horizon uint64) (dropped int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var retained int64
	keep := t.dirty[:0]
	for _, r := range t.dirty {
		if r.Live() {
			d, k := truncateChain(r, horizon)
			dropped += d
			retained += k
			if r.older != nil {
				keep = append(keep, r)
				continue
			}
		}
		// A head whose chain is gone has nothing left to release. An
		// unlinked head is someone else's to sweep: superseded, its
		// successor is on this list and chains to it; deleted, it is in the
		// retired set; undone, it has no chain.
		r.inDirty = false
	}
	clear(t.dirty[len(keep):])
	t.dirty = keep
	for r := range t.retired {
		c := r.createLSN.Load()
		d := r.deleteLSN.Load()
		// c == 0 with no older version: an insert whose creator aborted or
		// deleted it again before committing — no snapshot can ever see it,
		// and commit/abort processing does not need its retired membership.
		// (c == 0 with an older version is an in-flight update-then-delete:
		// this head is the only route to the committed version, so it stays
		// until the writer resolves.)
		neverVisible := c == 0 && r.older == nil
		expired := d != 0 && d != PendingLSN && d <= horizon
		if neverVisible || expired {
			t.dropRetired(r)
			unchain(r)
			dropped++
			continue
		}
		retained++
		dc, kc := truncateChain(r, horizon)
		dropped += dc
		retained += kc
	}
	t.versions = retained
	return dropped
}

// truncateChain cuts head's version chain below the newest version every
// snapshot at or above horizon can see, returning (dropped, kept) counts of
// non-head versions.
func truncateChain(head *Record, horizon uint64) (dropped, kept int64) {
	for v := head; v.older != nil; v = v.older {
		if c := v.createLSN.Load(); c != 0 && c <= horizon {
			return unchain(v), kept
		}
		kept++
	}
	return dropped, kept
}

// unchain cuts every link of v's chain of older versions, not just v's own,
// and returns how many versions it cut off. A stale pointer to one dropped
// version (a pooled record set, a bound table) then keeps that version
// alive, not the rest of the chain below it.
func unchain(v *Record) (n int64) {
	for v.older != nil {
		next := v.older
		v.older = nil
		v = next
		n++
	}
	return n
}

// VersionStats counts currently retained versions by walking the whole
// table: chain tails reachable from live heads plus the retired set and its
// chains. For tests and the versions-retained figure between GC passes.
func (t *Table) VersionStats() (retained int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	chainLen := func(head *Record) (n int64) {
		for v := head.older; v != nil; v = v.older {
			n++
		}
		return n
	}
	for _, r := range t.rows {
		if r != nil {
			retained += chainLen(r)
		}
	}
	for r := range t.retired {
		retained += 1 + chainLen(r)
	}
	return retained
}

// newRecord builds one version of a row of t: the record that Insert links
// and the replacement that copy-on-update Update links. A row of up to four
// columns keeps its values in the record's own allocation (one object, one
// load per row on a scan); a wider one keeps them in a slice of their own.
func (t *Table) newRecord(id uint64, vals []types.Value, older *Record) *Record {
	var r *Record
	switch len(vals) {
	case 1:
		p := new(record1)
		p.vals, r = p.v[:], &p.Record
	case 2:
		p := new(record2)
		p.vals, r = p.v[:], &p.Record
	case 3:
		p := new(record3)
		p.vals, r = p.v[:], &p.Record
	case 4:
		p := new(record4)
		p.vals, r = p.v[:], &p.Record
	default:
		r = &Record{vals: make([]types.Value, len(vals))}
	}
	coerceRow(t.schema, r.vals, vals)
	r.table, r.id, r.older = t, id, older
	return r
}

// A recordN is a record with its N values inline; newRecord hands out the
// embedded Record, whose vals point at v.
type (
	record1 struct {
		Record
		v [1]types.Value
	}
	record2 struct {
		Record
		v [2]types.Value
	}
	record3 struct {
		Record
		v [3]types.Value
	}
	record4 struct {
		Record
		v [4]types.Value
	}
)

// coerceRow copies vals into dst, widening INT values stored in FLOAT
// columns so that later reads see the declared kind.
func coerceRow(s *catalog.Schema, dst, vals []types.Value) {
	for i, v := range vals {
		if s.Col(i).Kind == types.KindFloat && v.Kind() == types.KindInt {
			dst[i] = types.Float(float64(v.Int()))
		} else {
			dst[i] = v
		}
	}
}
