package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/index"
	"github.com/stripdb/strip/internal/obs"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/types"
)

// RecoveryStats summarizes what Open restored from a data directory.
type RecoveryStats struct {
	SnapshotLSN    uint64 `json:"snapshot_lsn"`
	SnapshotTables int    `json:"snapshot_tables"`
	SnapshotRows   int    `json:"snapshot_rows"`
	ReplayedTxns   int    `json:"replayed_txns"`
	ReplayedOps    int    `json:"replayed_ops"`
	ReplayedDDL    int    `json:"replayed_ddl"`
	TornTail       bool   `json:"torn_tail"`
	LogBytes       int64  `json:"log_bytes"`
	DurationMicros int64  `json:"duration_micros"`
	// Epoch is the replication fencing epoch carried by the newest epoch
	// record in the log (0 when none); EpochLSN is that record's LSN.
	Epoch    uint64 `json:"epoch,omitempty"`
	EpochLSN uint64 `json:"epoch_lsn,omitempty"`
}

// Open recovers a data directory into the given (empty) catalog and store,
// then opens the log for appending and starts the group committer. Recovery
// loads the latest snapshot, replays every complete log record with an LSN
// past the snapshot, and truncates any torn tail so the next append starts
// on a valid record boundary.
func Open(dir string, opts Options, cat *catalog.Catalog, store *storage.Store) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open %q: %w", dir, err)
	}
	reg := opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	openFile := opts.OpenFile
	if openFile == nil {
		openFile = openOSFile
	}
	l := &Log{
		dir:        dir,
		path:       filepath.Join(dir, LogName),
		noSync:     opts.NoSync,
		openFile:   openFile,
		reqCh:      make(chan *commitReq, 1024),
		stopCh:     make(chan struct{}),
		syncerDone: make(chan struct{}),
	}
	l.instrument(reg)

	start := time.Now()
	stats := RecoveryStats{}
	snapLSN, err := loadSnapshot(dir, cat, store, &stats)
	if err != nil {
		return nil, err
	}
	maxLSN, validLen, rawLen, err := replayLog(l.path, snapLSN, cat, store, &stats)
	if err != nil {
		return nil, err
	}

	f, err := openFile(l.path)
	if err != nil {
		return nil, fmt.Errorf("wal: open log: %w", err)
	}
	if validLen == 0 {
		// Fresh (or unreadable-header) log: start a new one.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: reset log: %w", err)
		}
		if _, err := f.Write(logMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: log header: %w", err)
		}
		validLen = int64(len(logMagic))
	} else if validLen < rawLen {
		// Torn tail: drop the incomplete record so appends resume cleanly.
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: trim torn tail: %w", err)
		}
	}
	if !opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: sync recovered log: %w", err)
		}
	}
	l.file = f
	l.size = validLen
	l.synced = validLen
	l.nextLSN = maxU64(snapLSN, maxLSN) + 1
	l.snapLSN = snapLSN
	l.epoch = stats.Epoch
	l.epochLSN = stats.EpochLSN

	stats.LogBytes = validLen
	stats.DurationMicros = time.Since(start).Microseconds()
	l.recovery = stats
	l.recoveredTxns.Add(int64(stats.ReplayedTxns))
	l.recoveredOps.Add(int64(stats.ReplayedOps))
	l.recoveryGauge.Set(stats.DurationMicros)
	if stats.TornTail {
		l.tornTails.Inc()
	}

	go l.run()
	return l, nil
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func crcOf(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(body))
}

// loadSnapshot restores the snapshot file, if present, into cat and store.
// It returns the LSN the snapshot covers (0 when there is no snapshot).
func loadSnapshot(dir string, cat *catalog.Catalog, store *storage.Store, stats *RecoveryStats) (uint64, error) {
	raw, err := os.ReadFile(filepath.Join(dir, SnapshotName))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: read snapshot: %w", err)
	}
	return loadSnapshotRaw(raw, cat, store, stats)
}

// loadSnapshotRaw restores serialized snapshot-file bytes (magic + body +
// CRC) into cat and store; shipped resync snapshots load through the same
// path as local ones.
func loadSnapshotRaw(raw []byte, cat *catalog.Catalog, store *storage.Store, stats *RecoveryStats) (uint64, error) {
	if len(raw) < len(snapMagic)+12 || !bytes.Equal(raw[:len(snapMagic)], snapMagic) {
		return 0, fmt.Errorf("wal: snapshot file is not a STRIP snapshot")
	}
	body := raw[len(snapMagic) : len(raw)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(raw[len(raw)-4:]) {
		return 0, fmt.Errorf("wal: snapshot checksum mismatch")
	}
	d := &dec{b: body}
	snapLSN := d.u64()
	nTables := int(d.u32())
	for i := 0; i < nTables && d.err == nil; i++ {
		schema, err := decodeSchema(d)
		if err != nil {
			return 0, fmt.Errorf("wal: snapshot table %d: %w", i, err)
		}
		if err := cat.Define(schema); err != nil {
			return 0, fmt.Errorf("wal: snapshot: %w", err)
		}
		tbl, err := store.Create(schema)
		if err != nil {
			return 0, fmt.Errorf("wal: snapshot: %w", err)
		}
		nIdx := int(d.u16())
		type idxDef struct {
			col  string
			kind index.Kind
		}
		idxs := make([]idxDef, nIdx)
		for j := range idxs {
			idxs[j] = idxDef{col: d.str(), kind: index.Kind(d.u8())}
		}
		nRows := int(d.u32())
		for j := 0; j < nRows && d.err == nil; j++ {
			// Insert unstamped, then stamp with the checkpoint LSN: rows stay
			// invisible to snapshots below it — which is every concurrent
			// reader during a replica resync — and become visible the moment
			// the manager's LSN sequence is seeded past it.
			rec, err := tbl.InsertReserved(tbl.ReserveID(), d.row())
			if err != nil {
				return 0, fmt.Errorf("wal: snapshot row %s[%d]: %w", schema.Name(), j, err)
			}
			rec.StampCreate(snapLSN)
			stats.SnapshotRows++
		}
		// Indexes are built after rows so CreateIndex's backfill covers them.
		for _, ix := range idxs {
			if err := tbl.CreateIndex(ix.col, ix.kind); err != nil {
				return 0, fmt.Errorf("wal: snapshot index %s(%s): %w", schema.Name(), ix.col, err)
			}
		}
		stats.SnapshotTables++
	}
	if d.err != nil {
		return 0, fmt.Errorf("wal: snapshot decode: %w", d.err)
	}
	stats.SnapshotLSN = snapLSN
	return snapLSN, nil
}

// replayLog applies every complete, checksum-valid record with LSN > snapLSN
// to cat/store. It returns the highest LSN seen (even ones the snapshot
// already covers), the byte length of the valid prefix, and the raw file
// length. A torn or corrupt tail ends replay without error — that is the
// expected shape of a crash.
func replayLog(path string, snapLSN uint64, cat *catalog.Catalog, store *storage.Store, stats *RecoveryStats) (maxLSN uint64, validLen, rawLen int64, err error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, 0, 0, nil
	}
	if err != nil {
		return 0, 0, 0, fmt.Errorf("wal: read log: %w", err)
	}
	rawLen = int64(len(raw))
	if len(raw) < len(logMagic) {
		// Torn header: treat as empty.
		if len(raw) > 0 {
			stats.TornTail = true
		}
		return 0, 0, rawLen, nil
	}
	if !bytes.Equal(raw[:len(logMagic)], logMagic) {
		return 0, 0, 0, fmt.Errorf("wal: %s is not a STRIP log", path)
	}
	off := len(logMagic)
	for {
		kind, lsn, body, next, ok := readFrame(raw, off)
		if !ok {
			if off < len(raw) {
				stats.TornTail = true
			}
			break
		}
		if lsn > maxLSN {
			maxLSN = lsn
		}
		if lsn > snapLSN {
			if err := applyRecord(kind, lsn, body, cat, store, stats); err != nil {
				return 0, 0, 0, fmt.Errorf("wal: replay lsn %d: %w", lsn, err)
			}
		}
		off = next
	}
	return maxLSN, int64(off), rawLen, nil
}

// applyRecord applies one decoded record directly to storage — replay
// bypasses the transaction manager entirely, so no locks are taken and no
// rules fire (rules re-arm over the recovered data when the application
// re-registers them).
func applyRecord(kind byte, lsn uint64, body []byte, cat *catalog.Catalog, store *storage.Store, stats *RecoveryStats) error {
	switch kind {
	case recCommit:
		rec, err := decodeCommit(body)
		if err != nil {
			return err
		}
		for _, op := range rec.ops {
			if err := applyOp(op, lsn, store); err != nil {
				return fmt.Errorf("txn %d: %w", rec.txnID, err)
			}
			stats.ReplayedOps++
		}
		stats.ReplayedTxns++
		return nil
	case recCreateTable:
		d := &dec{b: body}
		schema, err := decodeSchema(d)
		if err != nil {
			return err
		}
		// Idempotent: a checkpoint may have raced the DDL append, putting
		// the table in the snapshot while the record stayed in the log.
		if _, ok := cat.Lookup(schema.Name()); ok {
			return nil
		}
		if err := cat.Define(schema); err != nil {
			return err
		}
		_, err = store.Create(schema)
		stats.ReplayedDDL++
		return err
	case recCreateIndex:
		d := &dec{b: body}
		table, column, ixKind := d.str(), d.str(), index.Kind(d.u8())
		if d.err != nil {
			return d.err
		}
		tbl, ok := store.Get(table)
		if !ok {
			return fmt.Errorf("create index: table %q does not exist", table)
		}
		if tbl.HasIndex(column) {
			return nil
		}
		stats.ReplayedDDL++
		return tbl.CreateIndex(column, ixKind)
	case recEpoch:
		d := &dec{b: body}
		epoch := d.u64()
		if d.err != nil {
			return d.err
		}
		// Newest record wins: checkpoints re-append the current epoch, so
		// the same epoch can recur at a later LSN.
		if epoch >= stats.Epoch {
			stats.Epoch = epoch
			stats.EpochLSN = lsn
		}
		return nil
	case recDropTable:
		d := &dec{b: body}
		name := d.str()
		if d.err != nil {
			return d.err
		}
		if _, ok := cat.Lookup(name); !ok {
			return nil
		}
		if err := cat.Drop(name); err != nil {
			return err
		}
		stats.ReplayedDDL++
		return store.Drop(name)
	default:
		return fmt.Errorf("unknown record kind %d", kind)
	}
}

// applyOp applies one redo operation, restoring version stamps from the
// commit record's LSN so post-recovery snapshots see exactly the committed
// prefix. Deletes and updates locate their victim by value equality: rows
// with identical values are interchangeable (records have no identity
// beyond their values), so the recovered relation is value-equal to the
// pre-crash one.
func applyOp(op redoOp, lsn uint64, store *storage.Store) error {
	tbl, ok := store.Get(op.table)
	if !ok {
		return fmt.Errorf("redo %s: table does not exist", op.table)
	}
	switch op.kind {
	case opInsert:
		// Insert unstamped, then stamp: Insert's bootstrap stamp would make
		// the row instantly visible to every snapshot, but on a live replica
		// concurrent readers must not see a batch mid-apply — rows become
		// visible only when the applied LSN is published past lsn.
		rec, err := tbl.InsertReserved(tbl.ReserveID(), op.new)
		if err == nil {
			rec.StampCreate(lsn)
		}
		return err
	case opDelete:
		rec := findRow(tbl, op.old)
		if rec == nil {
			return fmt.Errorf("redo delete on %s: row not found", op.table)
		}
		if err := tbl.Delete(rec); err != nil {
			return err
		}
		rec.StampDelete(lsn)
		return nil
	case opUpdate:
		rec := findRow(tbl, op.old)
		if rec == nil {
			return fmt.Errorf("redo update on %s: row not found", op.table)
		}
		nr, err := tbl.Update(rec, op.new)
		if err == nil {
			nr.StampCreate(lsn)
			rec.StampDelete(lsn)
		}
		return err
	default:
		return fmt.Errorf("unknown redo op %d", op.kind)
	}
}

func findRow(tbl *storage.Table, vals []types.Value) *storage.Record {
	// Index-assisted fast path: probe any index whose column is present in
	// the row, then verify full-row equality among the (few) matches. This
	// keeps follower replay O(matches) instead of O(table) per delete or
	// update — the dominant cost of continuous redo application.
	schema := tbl.Schema()
	for _, def := range tbl.IndexDefs() {
		ci := schema.ColIndex(def.Column)
		if ci < 0 || ci >= len(vals) {
			continue
		}
		recs, ok := tbl.IndexLookup(def.Column, vals[ci])
		if !ok {
			continue
		}
		for _, r := range recs {
			if rowEqual(r, vals) {
				return r
			}
		}
		// The index covers every live row; no match there is no match.
		return nil
	}
	var found *storage.Record
	tbl.Scan(func(r *storage.Record) bool {
		if rowEqual(r, vals) {
			found = r
			return false
		}
		return true
	})
	return found
}

func rowEqual(r *storage.Record, vals []types.Value) bool {
	if r.NumCols() != len(vals) {
		return false
	}
	for i, v := range vals {
		if !r.Value(i).Equal(v) {
			return false
		}
	}
	return true
}
