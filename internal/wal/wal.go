// Package wal is STRIP's durability subsystem: a write-ahead log with group
// commit, snapshot checkpoints, and crash recovery.
//
// STRIP is a main-memory database (paper §6.1); this package makes its state
// survive process exit. The design mirrors the paper's batching philosophy:
// just as unique transactions batch rule work across transaction boundaries,
// group commit batches the fsyncs of concurrent committers into one disk
// flush.
//
// Layout of a data directory:
//
//	wal.log      redo log: framed, CRC-protected records appended at commit
//	snapshot.db  latest checkpoint: catalog + tables + indexes at one LSN
//
// Every record carries a monotone LSN. A checkpoint serializes all standard
// tables at a quiesced LSN S (the caller holds shared locks on every table,
// so table state is transaction-consistent and every effect in it is already
// durable), durably replaces snapshot.db, then truncates the log. Recovery
// loads the snapshot and replays log records with LSN > S; replay is
// idempotent because the snapshot boundary is an LSN, not a file position.
//
// Commit ordering guarantee: Txn.Commit blocks on LogCommit before releasing
// its locks, so a transaction's effects become visible to others only after
// they are durable, and the log's LSN order respects every lock-induced
// dependency.
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/fault"
	"github.com/stripdb/strip/internal/index"
	"github.com/stripdb/strip/internal/obs"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
)

// File names inside a data directory.
const (
	LogName      = "wal.log"
	SnapshotName = "snapshot.db"
)

var (
	logMagic  = []byte("SWAL0001")
	snapMagic = []byte("SSNP0001")
)

// ErrClosed is returned for appends to a closed log.
var ErrClosed = fmt.Errorf("wal: log is closed")

// maxBatch caps the commits one fsync may cover.
const maxBatch = 64

// minLinger is the shortest measured sync time worth lingering for: below
// it (syncing off, tmpfs) a timer costs more than the fsync it could save.
const minLinger = 20 * time.Microsecond

// cohortWindow remembers the cohorts of the last few rounds — a round's
// cohort is its batch plus whoever had queued behind it when its fsync
// returned — and expects the next batch to hold the smallest of them. A size
// must be seen four times running before the flusher waits for it, and is
// forgotten the first time it is not: waiting for a commit that does not
// come costs a sync time, flushing without one that does costs it a place in
// the next batch.
type cohortWindow struct {
	sizes [4]int
	n     int
}

func (w *cohortWindow) record(size int) {
	w.sizes[w.n%len(w.sizes)] = size
	w.n++
}

func (w *cohortWindow) expect() int { return slices.Min(w.sizes[:]) }

// maxLingerSkip bounds the backoff after futile lingers, so that a log which
// spent hours with a lone committer still notices a second one within about
// a thousand flushes.
const maxLingerSkip = 1024

// Options configures Open.
type Options struct {
	// NoSync skips fsync entirely (benchmarks; durability is then only as
	// good as the OS page cache).
	NoSync bool
	// OpenFile overrides how the log file is opened (fault injection).
	OpenFile OpenFileFunc
	// Registry receives the log's instruments; nil uses a private registry.
	Registry *obs.Registry
}

// commitReq is one transaction waiting for group commit.
type commitReq struct {
	body []byte
	done chan error
	// mgr is the committer's transaction manager, whose open-writer count the
	// flusher reads while it decides whether to linger.
	mgr *txn.Manager
}

// Log is an open write-ahead log bound to a data directory.
type Log struct {
	dir      string
	path     string
	noSync   bool
	openFile OpenFileFunc

	// mu guards the file, LSN counter, and sizes; it serializes appends from
	// the group committer, DDL appends, and checkpoint truncation. size is
	// what has been written, synced the prefix of it known to be fsynced.
	// Every append of the log's own (commit, DDL, epoch) syncs before it
	// returns, so the two differ only on a replica, between AppendFrames and
	// the next SyncFrames.
	mu      sync.Mutex
	file    File
	nextLSN uint64
	size    int64
	synced  int64
	failed  error // sticky: after an append/sync error the log refuses work

	// Replication state (all guarded by mu). snapLSN is the LSN the on-disk
	// checkpoint covers: the log holds only frames with higher LSNs, so a
	// subscriber below it needs a full resync. pending holds the frames in
	// [synced, size): received and written by AppendFrames but not yet
	// fsynced. Taps receive frames only after a successful sync, so
	// subscribers never see frames this log may lose. epoch/epochLSN track
	// the newest fencing-epoch record.
	snapLSN  uint64
	epoch    uint64
	epochLSN uint64
	pending  []byte
	taps     []*Tap

	// Group-commit policy state (see collect). syncNanos is the EWMA of the
	// measured Sync time and the longest a linger may last; the rest belongs
	// to the flusher goroutine alone.
	syncNanos atomic.Int64
	cohorts   [2]cohortWindow // recent cohorts of rounds begun idle [0] and begun from the queue [1]
	kind      int             // which of the two the round being collected is
	skip      int             // linger opportunities still to pass up after futile lingers
	backoff   int             // what skip restarts from after the next futile linger

	reqCh      chan *commitReq
	stopCh     chan struct{}
	stopOnce   sync.Once
	syncerDone chan struct{}
	closeMu    sync.Mutex
	closeErr   error
	closed     bool

	recovery RecoveryStats

	appends       *obs.Counter
	bytesTotal    *obs.Counter
	fsyncs        *obs.Counter
	checkpoints   *obs.Counter
	recoveredTxns *obs.Counter
	recoveredOps  *obs.Counter
	tornTails     *obs.Counter
	fsyncHist     *obs.Histogram
	batchHist     *obs.Histogram
	stallHist     *obs.Histogram
	ckptHist      *obs.Histogram
	recoveryGauge *obs.Gauge
	lingers       *obs.Counter
	lingersFutile *obs.Counter
	lingerHist    *obs.Histogram
	expectGauge   *obs.Gauge
}

// instrument binds the log's instruments to reg.
func (l *Log) instrument(reg *obs.Registry) {
	l.appends = reg.Counter(obs.MWalAppends)
	l.bytesTotal = reg.Counter(obs.MWalBytes)
	l.fsyncs = reg.Counter(obs.MWalFsyncs)
	l.checkpoints = reg.Counter(obs.MWalCheckpoints)
	l.recoveredTxns = reg.Counter(obs.MWalRecoveredTxns)
	l.recoveredOps = reg.Counter(obs.MWalRecoveredOps)
	l.tornTails = reg.Counter(obs.MWalTornTails)
	l.fsyncHist = reg.Histogram(obs.MWalFsyncMicros)
	l.batchHist = reg.Histogram(obs.MWalGroupBatch)
	l.stallHist = reg.Histogram(obs.MWalCommitStall)
	l.ckptHist = reg.Histogram(obs.MWalCheckpointMicros)
	l.recoveryGauge = reg.Gauge(obs.MWalRecoveryMicros)
	l.lingers = reg.Counter(obs.MWalLingers)
	l.lingersFutile = reg.Counter(obs.MWalLingersFutile)
	l.lingerHist = reg.Histogram(obs.MWalLingerMicros)
	l.expectGauge = reg.Gauge(obs.MWalExpectedCohort)
}

// Dir returns the data directory.
func (l *Log) Dir() string { return l.dir }

// Size returns the log file's current (written) size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// NextLSN returns the LSN the next record will carry.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// LastRecovery reports what Open recovered from the data directory.
func (l *Log) LastRecovery() RecoveryStats { return l.recovery }

// LogCommit makes a committing transaction's write log durable, blocking
// until the fsync that covers its redo record has returned. It implements
// txn.DurableLog. Transactions with empty write logs are free.
func (l *Log) LogCommit(t *txn.Txn) error {
	t.ReachedLog()
	recs := t.Log()
	if len(recs) == 0 {
		return nil
	}
	ops := make([]redoOp, len(recs))
	for i, r := range recs {
		op := redoOp{table: r.Table}
		switch r.Op {
		case txn.OpInsert:
			op.kind = opInsert
			op.new = r.New.Values()
		case txn.OpDelete:
			op.kind = opDelete
			op.old = r.Old.Values()
		case txn.OpUpdate:
			op.kind = opUpdate
			op.old = r.Old.Values()
			op.new = r.New.Values()
		default:
			return fmt.Errorf("wal: unknown write-log op %v", r.Op)
		}
		ops[i] = op
	}
	req := &commitReq{body: encodeCommit(t.ID(), t.CommitTime(), ops), done: make(chan error, 1), mgr: t.Manager()}
	start := time.Now()
	select {
	case l.reqCh <- req:
	case <-l.stopCh:
		return ErrClosed
	}
	// reqCh is buffered, so the send can succeed concurrently with Close: the
	// syncer may exit with this request still queued and never answer done.
	// syncerDone closes after the flusher's last drain, so every handled
	// request already has its result buffered in done — an empty done then
	// means unhandled.
	var err error
	select {
	case err = <-req.done:
	case <-l.syncerDone:
		select {
		case err = <-req.done:
		default:
			return ErrClosed
		}
	}
	l.stallHist.Record(time.Since(start).Microseconds())
	return err
}

// run is the group-commit goroutine: it collects concurrent committers into
// a batch, appends their records, issues one fsync, and wakes them all.
func (l *Log) run() {
	defer close(l.syncerDone)
	batch := make([]*commitReq, 0, maxBatch)
	for {
		select {
		case first := <-l.reqCh:
			batch = l.collect(append(batch[:0], first))
		case <-l.stopCh:
			// Flush the committers that were already queued when Close began.
			for batch = l.takeQueued(batch[:0]); len(batch) > 0; batch = l.takeQueued(batch[:0]) {
				l.flush(batch)
			}
			return
		}
		queued := l.flush(batch)
		l.cohorts[l.kind].record(len(batch) + queued)
		l.kind = 0
		if queued > 0 {
			l.kind = 1
		}
		l.expectGauge.Set(int64(l.cohorts[l.kind].expect()))
	}
}

// takeQueued appends the commits queued right now, without waiting.
func (l *Log) takeQueued(batch []*commitReq) []*commitReq {
	for len(batch) < maxBatch {
		select {
		case r := <-l.reqCh:
			batch = append(batch, r)
		default:
			return batch
		}
	}
	return batch
}

// collect grows a batch that holds its first commit. Whatever is queued
// joins at once. Beyond that the flusher lingers only on evidence that
// another commit is coming:
//
//   - Committers that came together before will again. Closed-loop ones
//     return together, one think time after their ack — this is what sees a
//     sibling whose ack is still on the wire — and clients that send on one
//     schedule arrive together. Either way the last rounds' cohorts say how
//     many to expect (cohortWindow). A round that begins with the flusher
//     idle and one that begins from the queue are different regimes — two
//     committers taking turns fill the second kind with cohorts of two, two
//     that arrive together and then pause fill the first — so each kind keeps
//     its own window.
//   - A transaction that has written and not yet reached LogCommit is
//     expected too.
//
// The flusher flushes the moment the batch holds everyone expected, and never
// asks to wait longer than a sync has been measured to take (the runtime may
// deliver a sub-millisecond wake-up late when the process is otherwise idle;
// wal.linger_micros records the time actually waited). A commit that lingers
// and is joined pays no more than it paid queued behind another cohort's
// fsync, and the pair pays for one fsync where it paid for two. A linger
// that gathers nobody — a lone committer beside a transaction left open, a
// sibling blocked on this batch's row locks, open-loop arrivals — doubles
// the number of opportunities passed up before the next try; one that
// gathers anybody resets it. A lone committer's cohorts are all one, so it
// never lingers. l.mu is not held here, so DDL, checkpoints and subscribers
// proceed while the flusher waits.
func (l *Log) collect(batch []*commitReq) []*commitReq {
	batch = l.takeQueued(batch)
	limit := time.Duration(l.syncNanos.Load())
	if limit < minLinger {
		return batch
	}
	writers := batch[0].mgr
	expect := l.cohorts[l.kind].expect()
	short := func() bool {
		return len(batch) < min(max(expect, len(batch)+writers.OpenWriters()), maxBatch)
	}
	if !short() {
		return batch
	}
	if l.skip > 0 {
		l.skip--
		return batch
	}
	start, had := time.Now(), len(batch)
	timer := time.NewTimer(limit)
linger:
	for short() {
		select {
		case r := <-l.reqCh:
			batch = append(batch, r)
		case <-timer.C:
			break linger
		case <-l.stopCh:
			break linger
		}
	}
	timer.Stop()
	l.lingers.Inc()
	l.lingerHist.Record(time.Since(start).Microseconds())
	if len(batch) == had {
		l.lingersFutile.Inc()
		l.backoff = min(max(2*l.backoff, 1), maxLingerSkip)
		l.skip = l.backoff
	} else {
		l.backoff = 0
	}
	return batch
}

// flush encodes a batch of commit records into one buffer, writes it with one
// Write, fsyncs once, and wakes the committers. It returns how many commits
// had queued behind the batch when its fsync returned (before any committer
// it wakes can have come back).
func (l *Log) flush(batch []*commitReq) (queued int) {
	total := 0
	for _, r := range batch {
		total += frameOverhead + len(r.body)
	}
	buf := make([]byte, 0, total)
	l.mu.Lock()
	lsn := l.nextLSN
	for _, r := range batch {
		buf = appendFrame(buf, recCommit, lsn, r.body)
		lsn++
	}
	err := l.appendDurableLocked(buf, len(batch))
	l.mu.Unlock()
	queued = len(l.reqCh)
	l.batchHist.Record(int64(len(batch)))
	for _, r := range batch {
		r.done <- err
	}
	return queued
}

// appendDurableLocked writes buf — n complete frames stamped from l.nextLSN
// on — with one Write, fsyncs, and only then advances the LSN cursor and
// hands that same buffer to the taps. On a write or sync error the bytes are
// rolled back with Truncate so no unacknowledged record can survive a later
// OS flush or be resurrected by recovery. Call with l.mu held.
func (l *Log) appendDurableLocked(buf []byte, n int) error {
	if l.failed != nil {
		return l.failed
	}
	startSize := l.size
	var err error
	if _, err = l.file.Write(buf); err != nil {
		l.failed = fmt.Errorf("wal: append: %w", err)
		err = l.failed
	} else {
		l.size += int64(len(buf))
		err = l.syncLocked()
	}
	if err != nil {
		if terr := l.file.Truncate(startSize); terr == nil {
			l.size = startSize
		}
		return err
	}
	l.nextLSN += uint64(n)
	l.appends.Add(int64(n))
	l.bytesTotal.Add(int64(len(buf)))
	l.publishLocked(buf)
	return nil
}

// appendRecordLocked durably appends one record of the log's own (DDL and
// epoch records are rare; each pays its own fsync). Call with l.mu held.
func (l *Log) appendRecordLocked(kind byte, body []byte) error {
	buf := appendFrame(make([]byte, 0, frameOverhead+len(body)), kind, l.nextLSN, body)
	return l.appendDurableLocked(buf, 1)
}

// syncLocked fsyncs the log file per policy. On success everything written
// is durable, so frames a replica wrote ahead of this sync (pending) go to
// the taps. Call with l.mu held.
func (l *Log) syncLocked() error {
	if !l.noSync {
		if fault.Armed() {
			if err := fault.ErrorAt(fault.WalSyncFail); err != nil {
				// Injected fsync failures are transient by design: a committer
				// truncates its unacknowledged batch, a replica retries at its
				// next sync point, and the log stays usable — unlike a real
				// fsync error below, which is sticky. That lets chaos runs fail
				// individual commits without killing the log.
				return fmt.Errorf("wal: fsync: %w", err)
			}
		}
		start := time.Now()
		if err := l.file.Sync(); err != nil {
			l.failed = fmt.Errorf("wal: fsync: %w", err)
			return l.failed
		}
		took := time.Since(start)
		l.fsyncs.Inc()
		l.fsyncHist.Record(took.Microseconds())
		// EWMA over about the last eight syncs; the first sample seeds it.
		if prev := l.syncNanos.Load(); prev == 0 {
			l.syncNanos.Store(int64(took))
		} else {
			l.syncNanos.Store(prev + (int64(took)-prev)/8)
		}
	}
	l.synced = l.size
	if len(l.pending) > 0 {
		l.publishLocked(l.pending)
		l.pending = nil
	}
	return nil
}

// resetLocked empties the log down to its header and syncs it. Frames a
// replica had written but not synced go with the bytes that held them. Call
// with l.mu held; what names the caller in errors.
func (l *Log) resetLocked(what string) error {
	if err := l.file.Truncate(0); err != nil {
		l.failed = fmt.Errorf("wal: %s truncate: %w", what, err)
		return l.failed
	}
	l.size, l.synced, l.pending = 0, 0, nil
	if _, err := l.file.Write(logMagic); err != nil {
		l.failed = fmt.Errorf("wal: %s header: %w", what, err)
		return l.failed
	}
	l.size = int64(len(logMagic))
	return l.syncLocked()
}

// appendDDL durably appends one DDL record.
func (l *Log) appendDDL(kind byte, body []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendRecordLocked(kind, body)
}

// LogCreateTable records a CREATE TABLE.
func (l *Log) LogCreateTable(s *catalog.Schema) error {
	return l.appendDDL(recCreateTable, encodeCreateTable(s))
}

// LogCreateIndex records a CREATE INDEX.
func (l *Log) LogCreateIndex(table, column string, kind index.Kind) error {
	return l.appendDDL(recCreateIndex, encodeCreateIndex(table, column, kind))
}

// LogDropTable records a DROP TABLE.
func (l *Log) LogDropTable(name string) error {
	return l.appendDDL(recDropTable, encodeDropTable(name))
}

// Checkpoint serializes the catalog and every standard table to a new
// snapshot file and truncates the log. tx must be an open transaction used
// solely to quiesce writers: Checkpoint acquires a shared lock on every
// table through it, so it waits for in-flight writers (whose commits are
// durable by the time they release locks) and blocks new ones. The caller
// must also hold whatever mutex serializes DDL against this engine.
// Deadlock with concurrent writers surfaces as a lock-manager error; the
// checkpoint can simply be retried.
func (l *Log) Checkpoint(tx *txn.Txn, cat *catalog.Catalog, store *storage.Store) error {
	start := time.Now()
	names := cat.Names()
	sort.Strings(names)
	for _, n := range names {
		// Full table S (not just IS): must block record writers' IX so the
		// snapshot sees no in-flight row changes.
		if _, err := tx.ScanTable(n); err != nil {
			return fmt.Errorf("wal: checkpoint: quiesce %q: %w", n, err)
		}
	}
	l.mu.Lock()
	snapLSN := l.nextLSN - 1
	l.mu.Unlock()

	body, err := encodeSnapshot(snapLSN, names, cat, store)
	if err != nil {
		return err
	}
	if err := writeSnapshotFile(l.dir, body); err != nil {
		return err
	}

	// The snapshot is durable: reclaim the log. Appends cannot race this —
	// every potential committer is blocked on a table lock held by tx, and
	// DDL is excluded by the caller.
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if err := l.resetLocked("checkpoint"); err != nil {
		return err
	}
	l.snapLSN = snapLSN
	// The truncation just dropped any epoch record; re-append it so the
	// fencing epoch survives checkpoints (recovery learns it from the log).
	if l.epoch > 0 {
		epochAt := l.nextLSN
		if err := l.appendRecordLocked(recEpoch, encodeEpoch(l.epoch)); err != nil {
			return err
		}
		l.epochLSN = epochAt
	}
	l.checkpoints.Inc()
	l.ckptHist.Record(time.Since(start).Microseconds())
	return nil
}

// Close stops the group committer (flushing committers already queued),
// fsyncs, and closes the log file. It is idempotent.
func (l *Log) Close() error {
	l.stopOnce.Do(func() { close(l.stopCh) })
	<-l.syncerDone
	l.closeMu.Lock()
	defer l.closeMu.Unlock()
	if l.closed {
		return l.closeErr
	}
	l.closed = true
	l.mu.Lock()
	l.closeTapsLocked()
	err := l.syncLocked()
	cerr := l.file.Close()
	l.mu.Unlock()
	if err == nil && cerr != nil {
		err = cerr
	}
	l.closeErr = err
	return err
}

// encodeSnapshot serializes catalog + tables + indexes at snapLSN.
func encodeSnapshot(snapLSN uint64, names []string, cat *catalog.Catalog, store *storage.Store) ([]byte, error) {
	e := &enc{}
	e.u64(snapLSN)
	e.u32(uint32(len(names)))
	for _, name := range names {
		schema, ok := cat.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("wal: snapshot: table %q has no schema", name)
		}
		tbl, ok := store.Get(name)
		if !ok {
			return nil, fmt.Errorf("wal: snapshot: table %q has no storage", name)
		}
		encodeSchema(e, schema)
		defs := tbl.IndexDefs()
		e.u16(uint16(len(defs)))
		for _, d := range defs {
			e.str(d.Column)
			e.u8(byte(d.Kind))
		}
		countAt := len(e.b)
		e.u32(0) // row count, patched below
		n := 0
		tbl.Scan(func(r *storage.Record) bool {
			e.row(r.Values())
			n++
			return true
		})
		putU32(e.b[countAt:], uint32(n))
	}
	return e.b, nil
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// writeSnapshotFile durably replaces the snapshot: write to a temp file,
// fsync, rename over SnapshotName, fsync the directory.
func writeSnapshotFile(dir string, body []byte) error {
	raw := make([]byte, 0, len(snapMagic)+len(body)+4)
	raw = append(raw, snapMagic...)
	raw = append(raw, body...)
	raw = append(raw, crcOf(body)...)
	return writeSnapshotRaw(dir, raw)
}

// writeSnapshotRaw durably installs complete snapshot-file bytes (magic +
// body + CRC), as produced locally or shipped by a primary.
func writeSnapshotRaw(dir string, raw []byte) error {
	tmp, err := os.CreateTemp(dir, "snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("wal: snapshot temp: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(raw); err != nil {
		cleanup()
		return fmt.Errorf("wal: snapshot write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("wal: snapshot sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("wal: snapshot close: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, SnapshotName)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("wal: snapshot rename: %w", err)
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some platforms cannot fsync directories; the rename is still atomic.
	_ = d.Sync()
	return nil
}
