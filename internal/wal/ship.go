package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/storage"
)

// This file is the WAL's replication surface: durable-frame taps feeding
// the primary-side shipper, raw-frame appends (written at once, synced on the
// follower's cadence) for a received redo stream, fencing-epoch records, and
// the exported frame parse/apply helpers the follower's replay loop shares
// with recovery.

// ErrGap is returned by Subscribe when the log no longer contains the
// requested LSN: a checkpoint truncated past it, so the subscriber must
// full-resync from the snapshot before streaming.
var ErrGap = fmt.Errorf("wal: requested LSN precedes the log (checkpoint gap)")

// tapQueueCap bounds the chunks buffered per tap before the tap is marked
// lagged and detached — a stalled subscriber must not hold the log's memory
// hostage. A detached subscriber re-subscribes from its last applied LSN.
const tapQueueCap = 1024

// Tap is one subscriber's queue of durable frame chunks. Chunks arrive in
// LSN order; each chunk holds one or more complete frames exactly as they
// appear in the log file.
type Tap struct {
	mu     sync.Mutex
	queue  [][]byte
	sig    chan struct{}
	closed bool
	lagged bool
}

func newTap() *Tap { return &Tap{sig: make(chan struct{}, 1)} }

// push enqueues one durable chunk; called with the log mutex held so chunk
// order is LSN order. A full queue marks the tap lagged and drops it.
func (t *Tap) push(chunk []byte) (ok bool) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return false
	}
	if len(t.queue) >= tapQueueCap {
		t.lagged = true
		t.closed = true
		t.mu.Unlock()
		t.wake()
		return false
	}
	t.queue = append(t.queue, chunk)
	t.mu.Unlock()
	t.wake()
	return true
}

func (t *Tap) wake() {
	select {
	case t.sig <- struct{}{}:
	default:
	}
}

// TryNext pops the next chunk without blocking.
func (t *Tap) TryNext() (chunk []byte, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.queue) == 0 {
		return nil, false
	}
	chunk = t.queue[0]
	t.queue = t.queue[1:]
	return chunk, true
}

// NextTimeout pops the next durable chunk, waiting up to d for one to
// arrive. timedOut=true means the tap is still live but idle — shippers
// send a heartbeat and call again. ok=false with timedOut=false means the
// tap is done (closed, stopped, or lagged; see Lagged).
func (t *Tap) NextTimeout(stop <-chan struct{}, d time.Duration) (chunk []byte, ok bool, timedOut bool) {
	deadline := time.NewTimer(d)
	defer deadline.Stop()
	for {
		t.mu.Lock()
		if len(t.queue) > 0 {
			chunk = t.queue[0]
			t.queue = t.queue[1:]
			t.mu.Unlock()
			return chunk, true, false
		}
		closed := t.closed
		t.mu.Unlock()
		if closed {
			return nil, false, false
		}
		select {
		case <-t.sig:
		case <-deadline.C:
			return nil, false, true
		case <-stop:
			return nil, false, false
		}
	}
}

// Lagged reports whether the tap was detached for falling behind.
func (t *Tap) Lagged() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lagged
}

// close marks the tap done and wakes any blocked Next.
func (t *Tap) close() {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	t.wake()
}

// Subscription is a live view of the log from one LSN: History holds every
// durable frame in the log with LSN > FromLSN, and Tap yields every frame
// made durable after the subscription was taken — with no gap or overlap
// between them, because the synced size that ends History is captured, and
// the tap registered, under one hold of the log mutex.
type Subscription struct {
	FromLSN uint64
	// LastLSN is the newest durable LSN at subscription time.
	LastLSN uint64
	// History holds the archived frames (possibly empty).
	History []byte
	// Tap streams frames durable after the subscription.
	Tap *Tap

	l *Log
}

// Cancel detaches the subscription's tap.
func (s *Subscription) Cancel() {
	if s.l != nil {
		s.l.unsubscribe(s.Tap)
	}
	s.Tap.close()
}

// subscribeAttempts bounds Subscribe's re-reads when checkpoints keep
// truncating the log under it; each retry needs a whole checkpoint to land
// inside one file read.
const subscribeAttempts = 5

// Subscribe returns the log's durable content from fromLSN (exclusive) plus
// a live tap of later durable frames. ErrGap means a checkpoint truncated
// past fromLSN and the subscriber needs a full resync (see SnapshotBytes).
//
// The file is read and walked outside the log mutex, so a connecting
// follower does not stall committers for a time proportional to the log's
// size: bytes below the synced size only change when a checkpoint (or a
// resync) truncates the log, which moves snapLSN, and then the read is
// thrown away and retried.
func (l *Log) Subscribe(fromLSN uint64) (*Subscription, error) {
	for attempt := 0; attempt < subscribeAttempts; attempt++ {
		l.mu.Lock()
		if l.failed != nil {
			l.mu.Unlock()
			return nil, l.failed
		}
		if fromLSN < l.snapLSN {
			l.mu.Unlock()
			return nil, ErrGap
		}
		// Only durable bytes count: an unsynced tail would ship frames this
		// log may itself lose. They reach the tap when they are synced.
		synced, snapLSN := l.synced, l.snapLSN
		tap := newTap()
		l.taps = append(l.taps, tap)
		l.mu.Unlock()

		// LastLSN starts at the checkpoint's: that is the newest durable LSN
		// of a log with no frames in it.
		sub := &Subscription{FromLSN: fromLSN, LastLSN: snapLSN, Tap: tap, l: l}
		raw, err := readPrefix(l.path, synced)
		l.mu.Lock()
		truncated := l.snapLSN != snapLSN
		l.mu.Unlock()
		if truncated {
			sub.Cancel()
			continue
		}
		if err != nil {
			sub.Cancel()
			return nil, fmt.Errorf("wal: subscribe read: %w", err)
		}
		// LSNs ascend through the file, so history is one contiguous suffix.
		off, from := len(logMagic), len(raw)
		for off < len(raw) {
			_, lsn, _, next, ok := readFrame(raw, off)
			if !ok {
				sub.Cancel()
				return nil, fmt.Errorf("wal: subscribe: unreadable frame at offset %d of %d synced bytes", off, len(raw))
			}
			if lsn > fromLSN && from == len(raw) {
				from = off
			}
			sub.LastLSN = lsn
			off = next
		}
		sub.History = raw[from:]
		return sub, nil
	}
	return nil, fmt.Errorf("wal: subscribe: checkpoints outpaced %d reads of the log", subscribeAttempts)
}

// readPrefix reads the first n bytes of the file at path.
func readPrefix(path string, n int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	raw := make([]byte, n)
	if _, err := io.ReadFull(f, raw); err != nil {
		return nil, err
	}
	return raw, nil
}

func (l *Log) unsubscribe(t *Tap) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, tap := range l.taps {
		if tap == t {
			l.taps = append(l.taps[:i], l.taps[i+1:]...)
			return
		}
	}
}

// publishLocked hands the durably appended chunk to every tap; called with
// l.mu held so taps observe frames in LSN order. Lagged taps drop out.
func (l *Log) publishLocked(chunk []byte) {
	if len(l.taps) == 0 || len(chunk) == 0 {
		return
	}
	live := l.taps[:0]
	for _, tap := range l.taps {
		if tap.push(chunk) {
			live = append(live, tap)
		}
	}
	l.taps = live
}

// closeTapsLocked detaches every subscriber (log shutdown).
func (l *Log) closeTapsLocked() {
	for _, tap := range l.taps {
		tap.close()
	}
	l.taps = nil
}

// SnapLSN reports the LSN the on-disk snapshot covers: every log frame has
// a higher LSN. Subscribers below it need a full resync.
func (l *Log) SnapLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapLSN
}

// Epoch returns the current replication fencing epoch (0 before any
// promotion anywhere in the replica group's history).
func (l *Log) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// EpochLSN returns the LSN at which the current epoch began (the newest
// epoch record's LSN; 0 when the epoch is 0).
func (l *Log) EpochLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epochLSN
}

// BumpEpoch durably advances the fencing epoch and returns the new value.
// Promotion stamps it into the WAL so the new primary's redo stream carries
// the fence: followers replaying it adopt the epoch, and a stale primary
// (still on the old epoch) is rejected when it tries to serve or rejoin
// with a divergent tail.
func (l *Log) BumpEpoch() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	next := l.epoch + 1
	lsn := l.nextLSN
	if err := l.appendRecordLocked(recEpoch, encodeEpoch(next)); err != nil {
		return 0, err
	}
	l.epoch = next
	l.epochLSN = lsn
	return next, nil
}

// SetEpoch adopts an epoch learned from a replayed redo stream (the epoch
// record is already in the local log via AppendFrames).
func (l *Log) SetEpoch(epoch, lsn uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if epoch > l.epoch {
		l.epoch = epoch
		l.epochLSN = lsn
	}
}

// AppendFrames writes pre-framed records received from a primary, verbatim,
// and advances the LSN cursor to lastLSN+1 — without syncing: the frames
// become durable, and reach this log's own taps, at the next SyncFrames. The
// write still precedes the caller's apply, so the file always holds a
// superset of what the replica has served, byte-compatible with recovery: a
// replica crash resumes from its own snapshot + log tail with the same
// torn-tail truncation as a primary.
func (l *Log) AppendFrames(frames []byte, lastLSN uint64) error {
	if len(frames) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if _, err := l.file.Write(frames); err != nil {
		l.failed = fmt.Errorf("wal: append frames: %w", err)
		return l.failed
	}
	l.size += int64(len(frames))
	l.pending = append(l.pending, frames...)
	if lastLSN >= l.nextLSN {
		l.nextLSN = lastLSN + 1
	}
	l.appends.Inc()
	l.bytesTotal.Add(int64(len(frames)))
	return nil
}

// SyncFrames makes every frame AppendFrames has written durable and only
// then publishes them to the taps, so a standby of this standby never sees a
// frame its upstream could lose. It costs nothing when nothing is unsynced.
// A failure injected at fault.WalSyncFail leaves the bytes in place for the
// next call; a real fsync error is sticky (see Err).
func (l *Log) SyncFrames() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.synced == l.size {
		return nil
	}
	return l.syncLocked()
}

// Err reports the sticky error after which the log refuses all work (nil
// while it is healthy).
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// ResetForResync discards the local log and snapshot cursor in favor of a
// freshly shipped checkpoint covering snapLSN: the log restarts empty —
// unsynced frames included — and the next expected LSN is snapLSN+1. The
// caller has already written the shipped snapshot file into the data
// directory.
func (l *Log) ResetForResync(snapLSN uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.resetLocked("resync"); err != nil {
		return err
	}
	l.snapLSN = snapLSN
	if l.nextLSN <= snapLSN {
		l.nextLSN = snapLSN + 1
	}
	return nil
}

// SnapshotBytes reads the on-disk checkpoint file for shipping to a
// follower that needs a full resync. ok is false when no checkpoint exists
// yet (then the log reaches back to LSN 0 and no resync is ever needed).
func (l *Log) SnapshotBytes() (raw []byte, snapLSN uint64, ok bool, err error) {
	l.mu.Lock()
	snapLSN = l.snapLSN
	l.mu.Unlock()
	raw, rerr := os.ReadFile(filepath.Join(l.dir, SnapshotName))
	if os.IsNotExist(rerr) {
		return nil, 0, false, nil
	}
	if rerr != nil {
		return nil, 0, false, fmt.Errorf("wal: read snapshot for shipping: %w", rerr)
	}
	return raw, snapLSN, true, nil
}

// WriteShippedSnapshot durably installs snapshot bytes received from a
// primary into dir (temp file + fsync + rename, like a local checkpoint).
func WriteShippedSnapshot(dir string, raw []byte) error {
	if len(raw) < len(snapMagic)+12 {
		return fmt.Errorf("wal: shipped snapshot too short")
	}
	return writeSnapshotRaw(dir, raw)
}

// ParseFrame parses the frame starting at off in a raw frame buffer. ok is
// false when the bytes do not form a complete, checksum-valid frame. The
// follower's replay loop uses it to walk received chunks.
func ParseFrame(b []byte, off int) (kind byte, lsn uint64, body []byte, next int, ok bool) {
	return readFrame(b, off)
}

// ApplyRecord applies one parsed record to a catalog and store through the
// recovery path: no locks, no rule firings, version stamps restored from
// the record's LSN. The follower replay loop shares this with crash
// recovery, so replica state is byte-for-byte what recovery would produce.
func ApplyRecord(kind byte, lsn uint64, body []byte, cat *catalog.Catalog, store *storage.Store, stats *RecoveryStats) error {
	return applyRecord(kind, lsn, body, cat, store, stats)
}

// LoadSnapshotBytes restores a serialized checkpoint (as shipped by
// SnapshotBytes, magic + body + CRC) into cat and store, returning the LSN
// it covers. The caller provides empty (or freshly wiped) structures.
func LoadSnapshotBytes(raw []byte, cat *catalog.Catalog, store *storage.Store, stats *RecoveryStats) (uint64, error) {
	return loadSnapshotRaw(raw, cat, store, stats)
}
