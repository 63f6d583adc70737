// Package storage implements STRIP's main-memory table storage (paper §6.1).
//
// A standard table keeps its fixed-width records in one ordered slot array
// (the paper links them in a list; an array walk's loads overlap), optionally
// indexed by hash or red-black tree indexes. Records are never changed in
// place: an update creates a new record and unlinks the old one, which is
// retained while bound tables reference it (reference counting). Temporary
// tables — used for intermediate results, transition tables, and bound
// tables — store one pointer per contributing standard record plus
// materialized values for computed columns, resolved through a per-table
// static column map.
package storage

import (
	"sync/atomic"

	"github.com/stripdb/strip/internal/types"
)

// PendingLSN marks a delete stamp written by a transaction that has not
// committed yet. A pending tombstone hides the record from its writer only;
// every other snapshot still sees the record until the delete commits.
const PendingLSN = ^uint64(0)

// BootstrapLSN stamps rows inserted through the non-transactional loader
// path (Table.Insert): data loaded outside any transaction is visible to
// every snapshot. The commit-stamp sequence starts at BootstrapLSN so no
// snapshot can ever be older than bootstrap data.
const BootstrapLSN = 1

// Record is a standard-table tuple. Its values are immutable once the record
// is linked into a table; updates replace the record wholesale.
type Record struct {
	vals []types.Value

	// id is the record's stable lock identity, assigned from the table's
	// ID counter at insert. Copy-on-update replacements inherit the old
	// record's id, so a record-granularity lock taken on (table, id) keeps
	// covering the row across versions; see Table.Update.
	id uint64

	// slot is the record's index in Table.rows while it is linked. Used
	// under the table latch held exclusively.
	slot  int
	table *Table

	// older points to the version this record superseded (copy-on-update),
	// forming a newest-to-oldest version chain. Written under the table
	// latch; read by snapshot scans holding the latch shared.
	older *Record

	// createLSN is the commit LSN of the transaction that created this
	// version (0 while that transaction is in flight). deleteLSN is the
	// commit LSN of the deleting transaction (0 if never deleted,
	// PendingLSN while the delete is uncommitted). Both are stamped at
	// commit, after WAL durability, under the manager's stamp mutex.
	createLSN atomic.Uint64
	deleteLSN atomic.Uint64
	// writer is the transaction id of the in-flight creator or deleter,
	// for read-your-own-writes visibility. Stale values are harmless: a
	// snapshot that loads createLSN == 0 is ordered before the creator's
	// commit publication, so the record is invisible to it regardless.
	writer atomic.Int64

	// refs counts bound-table references keeping this record alive after it
	// has been unlinked from its table (paper §6.1 reference counting).
	refs atomic.Int32
	// unlinked is set (under the table latch) when the record is deleted or
	// superseded by an update.
	unlinked atomic.Bool
	// retiredCounted tracks whether this record is currently included in the
	// table's retired-but-held statistic; CAS transitions keep the count
	// consistent without taking the table latch from Pin/Unpin (snapshot
	// scans pin unlinked versions while holding the latch shared).
	retiredCounted atomic.Bool
	// inDirty marks membership of the owning table's GC work list
	// (Table.dirty). Guarded by the table latch held exclusively. (Here,
	// beside the flags, it keeps the record at 96 bytes.)
	inDirty bool
}

// Value returns the record's i-th column value.
func (r *Record) Value(i int) types.Value { return r.vals[i] }

// At returns the record's i-th column value in place, for readers that
// compare or fold it without taking a copy. Record values are immutable
// once linked; callers must not write through the pointer.
func (r *Record) At(i int) *types.Value { return &r.vals[i] }

// Values returns a copy of the record's values.
func (r *Record) Values() []types.Value {
	out := make([]types.Value, len(r.vals))
	copy(out, r.vals)
	return out
}

// NumCols returns the record's column count.
func (r *Record) NumCols() int { return len(r.vals) }

// ID returns the record's stable lock identity within its table. All
// versions of a logical row (through copy-on-update) share one ID.
func (r *Record) ID() uint64 { return r.id }

// Table returns the table the record belongs (or belonged) to.
func (r *Record) Table() *Table { return r.table }

// Live reports whether the record is still linked into its table.
func (r *Record) Live() bool { return !r.unlinked.Load() }

// Older returns the version this record superseded, if any. Callers must
// hold the owning table's latch (any mode).
func (r *Record) Older() *Record { return r.older }

// CreateLSN returns the commit LSN of the version's creating transaction
// (0 if that transaction has not committed).
func (r *Record) CreateLSN() uint64 { return r.createLSN.Load() }

// StampCreate records the creating transaction's commit LSN. Called at
// commit (under the manager's stamp mutex) and by recovery replay.
func (r *Record) StampCreate(lsn uint64) { r.createLSN.Store(lsn) }

// StampDelete records the deleting transaction's commit LSN, replacing the
// pending tombstone. Called at commit and by recovery replay.
func (r *Record) StampDelete(lsn uint64) { r.deleteLSN.Store(lsn) }

// SetWriter tags the record with the in-flight transaction mutating it.
func (r *Record) SetWriter(txnID int64) { r.writer.Store(txnID) }

// VisibleAt reports whether this version is visible to a snapshot taken at
// LSN snap by transaction me (0 for a pure snapshot reader):
//
//	created:  createLSN != 0 && createLSN <= snap — or the reader wrote it
//	deleted:  deleteLSN == 0, or > snap, or a pending delete by another txn
//
// An uncommitted version (createLSN == 0) written by a different
// transaction is always invisible; a pending tombstone hides the record
// from its own writer only.
func (r *Record) VisibleAt(snap uint64, me int64) bool {
	if c := r.createLSN.Load(); c == 0 {
		if me == 0 || r.writer.Load() != me {
			return false
		}
	} else if c > snap {
		return false
	}
	switch d := r.deleteLSN.Load(); {
	case d == 0:
		return true
	case d == PendingLSN:
		return me == 0 || r.writer.Load() != me
	default:
		return d > snap
	}
}

// Pin registers a bound-table reference to the record. Pinning an already
// unlinked record (the common case: bound tables capture pre-update images)
// marks it as retired-but-held in the owning table's statistics. The
// accounting is lock-free so snapshot scans can pin superseded versions
// while holding the table latch shared.
func (r *Record) Pin() {
	if r.refs.Add(1) >= 1 && r.unlinked.Load() && r.table != nil {
		if r.retiredCounted.CompareAndSwap(false, true) {
			r.table.noteRetired(+1)
		}
	}
}

// Unpin releases a bound-table reference. When the last reference to an
// unlinked record is released, the record is fully retired and the owning
// table's retired-record statistic is decremented.
func (r *Record) Unpin() {
	if n := r.refs.Add(-1); n < 0 {
		panic("storage: record unpinned more times than pinned")
	} else if n == 0 && r.unlinked.Load() && r.table != nil {
		if r.retiredCounted.CompareAndSwap(true, false) {
			r.table.noteRetired(-1)
		}
	}
}

// Refs reports the current reference count (for stats and tests).
func (r *Record) Refs() int32 { return r.refs.Load() }
