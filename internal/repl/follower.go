package repl

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/fault"
	"github.com/stripdb/strip/internal/obs"
	"github.com/stripdb/strip/internal/retry"
	"github.com/stripdb/strip/internal/server"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/wal"
)

// ErrFenced marks a follower permanently refused by its primary because of
// a fencing-epoch conflict: its history diverged (it is, or followed, a
// deposed primary). Replication halts rather than silently serving
// divergent data; the operator must resync from scratch.
var ErrFenced = errors.New("repl: fenced by primary (divergent history)")

// StalenessFunc names the db.Staleness tracker replication lag feeds.
const StalenessFunc = "repl"

// Config configures a Follower.
type Config struct {
	// Primary is the primary's stripd address (host:port).
	Primary string
	// Token and Tenant are presented in the stream session's handshake.
	Token, Tenant string
	// Heartbeat is the expected shipper heartbeat interval; reads time out
	// (and trigger reconnect) after ~10 missed heartbeats. Default
	// DefaultHeartbeat.
	Heartbeat time.Duration
	// DialTimeout bounds one connection attempt. Default 2s.
	DialTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Heartbeat <= 0 {
		c.Heartbeat = DefaultHeartbeat
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	return c
}

// Status is a point-in-time view of a follower, served at /debug/repl and
// by strip-cli's \repl.
type Status struct {
	Primary    string `json:"primary"`
	Connected  bool   `json:"connected"`
	Resyncing  bool   `json:"resyncing"`
	Fenced     bool   `json:"fenced"`
	Promoted   bool   `json:"promoted"`
	Epoch      uint64 `json:"epoch"`
	AppliedLSN uint64 `json:"applied_lsn"`
	// DurableLSN is the newest LSN fsynced in the replica's own log; it
	// trails AppliedLSN by at most one heartbeat of frames.
	DurableLSN uint64 `json:"durable_lsn"`
	PrimaryLSN uint64 `json:"primary_lsn"`
	LagLSN     uint64 `json:"lag_lsn"`
	LagMicros  int64  `json:"lag_micros"`
	Reconnects int64  `json:"reconnects"`
	Resyncs    int64  `json:"resyncs"`
	LastError  string `json:"last_error,omitempty"`
}

// Follower continuously replays a primary's redo stream into a local
// engine. All replay happens on one goroutine; concurrent snapshot readers
// are isolated by MVCC (replayed versions stay invisible until the applied
// LSN is published to the transaction manager).
type Follower struct {
	cfg   Config
	log   *wal.Log
	cat   *catalog.Catalog
	store *storage.Store
	mgr   *txn.Manager
	reg   *obs.Registry
	stale *obs.Staleness

	applied    atomic.Uint64 // newest applied (and published) LSN
	durable    atomic.Uint64 // newest LSN fsynced in the local log
	primaryLSN atomic.Uint64 // newest durable LSN reported by the primary
	lastWall   atomic.Int64  // primary wall clock at the last batch, unix micros
	connected  atomic.Bool
	resyncing  atomic.Bool
	fenced     atomic.Bool
	promoted   atomic.Bool
	reconnects atomic.Int64
	resyncs    atomic.Int64
	lastErr    atomic.Value // string

	// Replay-loop private (single goroutine; Promote reads them only after
	// the loop has exited). unsynced counts the applied bytes the log has
	// written but not fsynced; lastSync is when it last caught up.
	stats    wal.RecoveryStats
	unsynced int64
	lastSync time.Time

	// Instruments of the per-batch path, resolved once.
	mApplied, mBytes, mBatches, mHeartbeats, mLogSyncs *obs.Counter
	gLagLSN, gLagMs, gUnsynced                         *obs.Gauge

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	connMu    sync.Mutex
	conn      net.Conn
}

// NewFollower builds a follower over an engine's recovered state. The
// engine must have a durable data directory (log): every received frame is
// written to it before it is applied and fsynced on the heartbeat cadence,
// which is what makes replica crash/restart resume from its own LSN.
func NewFollower(cfg Config, log *wal.Log, cat *catalog.Catalog, store *storage.Store, mgr *txn.Manager, reg *obs.Registry) *Follower {
	cfg = cfg.withDefaults()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	f := &Follower{
		cfg:   cfg,
		log:   log,
		cat:   cat,
		store: store,
		mgr:   mgr,
		reg:   reg,
		stale: reg.Staleness(StalenessFunc),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),

		lastSync:    time.Now(),
		mApplied:    reg.Counter(obs.MReplApplied),
		mBytes:      reg.Counter(obs.MReplBytes),
		mBatches:    reg.Counter(obs.MReplBatches),
		mHeartbeats: reg.Counter(obs.MReplHeartbeats),
		mLogSyncs:   reg.Counter(obs.MReplLogSyncs),
		gLagLSN:     reg.Gauge(obs.MReplLagLSN),
		gLagMs:      reg.Gauge(obs.MReplLagMs),
		gUnsynced:   reg.Gauge(obs.MReplUnsynced),
	}
	f.applied.Store(log.NextLSN() - 1)
	f.durable.Store(log.NextLSN() - 1)
	f.lastErr.Store("")
	return f
}

// Start launches the replication loop.
func (f *Follower) Start() {
	go f.run()
}

// Close stops the replication loop and waits for it to drain the batch it
// is applying and fsync the log behind it. Idempotent.
func (f *Follower) Close() {
	f.closeOnce.Do(func() {
		close(f.stop)
		f.connMu.Lock()
		if f.conn != nil {
			f.conn.Close() //nolint:errcheck
		}
		f.connMu.Unlock()
	})
	<-f.done
}

// Promote turns the follower into a standalone primary: the replication
// loop stops (draining any batch mid-apply), every applied frame is made
// durable, and then a bumped fencing epoch is stamped durably into the local
// WAL so the old primary — whose epoch is now stale — is rejected if it ever
// offers or requests frames. The caller flips the engine writable after this
// returns.
func (f *Follower) Promote() (epoch uint64, err error) {
	f.Close()
	// The loop synced as it exited; this retries a sync that failed there.
	if err := f.syncLog(); err != nil {
		return 0, fmt.Errorf("repl: promote: %w", err)
	}
	epoch, err = f.log.BumpEpoch()
	if err != nil {
		return 0, fmt.Errorf("repl: promote: %w", err)
	}
	f.promoted.Store(true)
	return epoch, nil
}

// AppliedLSN is the newest replayed-and-published LSN — the snapshot
// horizon read-only transactions on this replica see.
func (f *Follower) AppliedLSN() uint64 { return f.applied.Load() }

// Resyncing reports whether a full resync is wiping and reloading state;
// reads are refused (retryably) while true.
func (f *Follower) Resyncing() bool { return f.resyncing.Load() }

// Fenced reports whether the primary permanently refused this follower.
func (f *Follower) Fenced() bool { return f.fenced.Load() }

// LagMicros estimates replication lag in wall-clock microseconds: local
// wall time minus the primary clock carried by the last received batch.
// Heartbeats keep it fresh (~Heartbeat granularity); disconnection makes
// it grow naturally. Before any batch has arrived it is effectively
// infinite.
func (f *Follower) LagMicros() int64 {
	w := f.lastWall.Load()
	if w == 0 || f.resyncing.Load() {
		return math.MaxInt64 / 2
	}
	lag := f.wallNow() - w
	if lag < 0 {
		lag = 0
	}
	return lag
}

// Status snapshots the follower.
func (f *Follower) Status() Status {
	applied, plsn := f.applied.Load(), f.primaryLSN.Load()
	var lagLSN uint64
	if plsn > applied {
		lagLSN = plsn - applied
	}
	lagMicros := f.LagMicros()
	if lagMicros >= math.MaxInt64/2 {
		lagMicros = -1 // never connected: no measurement yet
	}
	return Status{
		Primary:    f.cfg.Primary,
		Connected:  f.connected.Load(),
		Resyncing:  f.resyncing.Load(),
		Fenced:     f.fenced.Load(),
		Promoted:   f.promoted.Load(),
		Epoch:      f.log.Epoch(),
		AppliedLSN: applied,
		DurableLSN: f.durable.Load(),
		PrimaryLSN: plsn,
		LagLSN:     lagLSN,
		LagMicros:  lagMicros,
		Reconnects: f.reconnects.Load(),
		Resyncs:    f.resyncs.Load(),
		LastError:  f.lastErr.Load().(string),
	}
}

// wallNow reads the local wall clock for lag measurement, offset by the
// clock-skew fault point when armed (chaos tests skew one engine).
func (f *Follower) wallNow() int64 {
	now := time.Now().UnixMicro()
	if fault.Armed() {
		now += fault.Skew(fault.ClockSkew).Microseconds()
	}
	return now
}

// reconnect paces the follower's reconnect attempts. The loop never gives
// up, so Retries is unused.
var reconnect = retry.Policy{Base: 50 * time.Millisecond, Max: 3 * time.Second}

// run is the reconnect loop: stream until the connection dies, back off
// under reconnect, repeat. A fencing refusal is sticky and ends the loop —
// serving divergent data silently would be worse than stopping.
func (f *Follower) run() {
	defer close(f.done)
	key := uint64(time.Now().UnixNano())
	var n int
	var backoff time.Duration
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		start := time.Now()
		err := f.streamOnce()
		f.connected.Store(false)
		// The stream is over: what it applied becomes durable before the next
		// connection (whose first act may be a resync), and before Close or
		// Promote — which wait for this loop — return.
		if serr := f.syncLog(); err == nil {
			err = serr
		}
		if err != nil {
			f.lastErr.Store(err.Error())
			if errors.Is(err, ErrFenced) {
				f.fenced.Store(true)
				f.reg.Counter(obs.MReplFenced).Inc()
				return
			}
		}
		select {
		case <-f.stop:
			return
		default:
		}
		f.reconnects.Add(1)
		f.reg.Counter(obs.MReplReconnects).Inc()
		// A stream that survived a while earned a fresh backoff.
		if time.Since(start) > 10*backoff {
			n = 0
		}
		n++
		backoff = reconnect.Delay(n, key)
		select {
		case <-f.stop:
			return
		case <-time.After(backoff):
		}
	}
}

// streamOnce runs one connection lifecycle: dial, handshake, REPL_STREAM,
// optional snapshot resync, then batch replay until the stream breaks.
func (f *Follower) streamOnce() error {
	conn, err := net.DialTimeout("tcp", f.cfg.Primary, f.cfg.DialTimeout)
	if err != nil {
		return err
	}
	f.connMu.Lock()
	f.conn = conn
	f.connMu.Unlock()
	defer func() {
		f.connMu.Lock()
		f.conn = nil
		f.connMu.Unlock()
		conn.Close() //nolint:errcheck
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	readTimeout := 10 * f.cfg.Heartbeat
	if readTimeout < 2*time.Second {
		readTimeout = 2 * time.Second
	}

	// Session handshake, then convert the connection into a WAL stream.
	conn.SetDeadline(time.Now().Add(f.cfg.DialTimeout + readTimeout)) //nolint:errcheck
	if err := server.WriteFrame(conn, server.FrameHello, server.EncodeHello(f.cfg.Token, f.cfg.Tenant)); err != nil {
		return err
	}
	typ, payload, err := server.ReadFrame(br)
	if err != nil {
		return err
	}
	if typ != server.FrameWelcome {
		return f.frameError(typ, payload, "welcome")
	}
	if err := server.WriteFrame(conn, server.FrameReplStream,
		server.EncodeReplStream(f.applied.Load(), f.log.Epoch())); err != nil {
		return err
	}
	typ, payload, err = server.ReadFrame(br)
	if err != nil {
		return err
	}
	if typ != server.FrameReplHdr {
		return f.frameError(typ, payload, "repl header")
	}
	_, snapLSN, lastLSN, resync, err := server.DecodeReplHdr(payload)
	if err != nil {
		return err
	}
	f.primaryLSN.Store(lastLSN)

	if resync {
		var raw []byte
		for {
			conn.SetReadDeadline(time.Now().Add(readTimeout)) //nolint:errcheck
			typ, payload, err := server.ReadFrame(br)
			if err != nil {
				return err
			}
			if typ != server.FrameReplSnap {
				return f.frameError(typ, payload, "snapshot chunk")
			}
			chunk, last, err := server.DecodeReplSnap(payload)
			if err != nil {
				return err
			}
			raw = append(raw, chunk...)
			if last {
				break
			}
		}
		if err := f.installSnapshot(raw, snapLSN); err != nil {
			return err
		}
	}

	f.connected.Store(true)
	for {
		select {
		case <-f.stop:
			return nil
		default:
		}
		conn.SetReadDeadline(time.Now().Add(readTimeout)) //nolint:errcheck
		typ, payload, err := server.ReadFrame(br)
		if err != nil {
			return err
		}
		if typ != server.FrameReplBatch {
			return f.frameError(typ, payload, "batch")
		}
		lastLSN, wall, frames, err := server.DecodeReplBatch(payload)
		if err != nil {
			return err
		}
		if err := f.applyBatch(lastLSN, wall, frames); err != nil {
			return err
		}
	}
}

// frameError interprets an unexpected frame: ERR frames surface their
// typed error (fencing becomes the sticky ErrFenced), anything else is a
// protocol violation.
func (f *Follower) frameError(typ byte, payload []byte, expected string) error {
	if typ == server.FrameErr {
		code, msg, derr := server.DecodeErr(payload)
		if derr == nil {
			if code == server.CodeFenced {
				return fmt.Errorf("%w: %s", ErrFenced, msg)
			}
			return server.DecodeError(code, msg)
		}
	}
	return fmt.Errorf("repl: expected %s frame, got 0x%02x", expected, typ)
}

// applyBatch writes, replays and publishes one REPL_BATCH. Frames at or
// below the applied LSN are filtered out first — a reconnect may replay a
// segment the follower already has, and applying it twice would duplicate
// rows — then the rest is written to the local log BEFORE it is applied
// (so the file is always a superset of what readers have seen), and finally
// the new applied LSN is published so snapshot readers advance atomically to
// the batch boundary.
//
// The log is fsynced on the heartbeat cadence, not per batch: when a
// heartbeat arrives (the stream has been idle for cfg.Heartbeat) and when
// cfg.Heartbeat has passed since the last sync while frames keep arriving.
// Nothing here is ever acknowledged to the primary, this process's state
// dies with it, and the primary's log — which ships only fsynced frames —
// is the upstream backup: after an operating-system crash the replica
// restarts at most one heartbeat behind what it had served and re-streams
// the difference.
func (f *Follower) applyBatch(primaryLast uint64, wall int64, frames []byte) error {
	applied := f.applied.Load()
	keep := frames
	maxLSN := applied
	filtered := false
	for off := 0; off < len(frames); {
		_, lsn, _, next, ok := wal.ParseFrame(frames, off)
		if !ok {
			return fmt.Errorf("repl: corrupt frame in batch at offset %d", off)
		}
		if lsn <= applied {
			if !filtered {
				filtered = true
				keep = append([]byte(nil), frames[:off]...)
			}
		} else {
			if filtered {
				keep = append(keep, frames[off:next]...)
			}
			if lsn > maxLSN {
				maxLSN = lsn
			}
		}
		off = next
	}

	if len(keep) > 0 {
		if err := f.log.AppendFrames(keep, maxLSN); err != nil {
			return fmt.Errorf("repl: write batch: %w", err)
		}
		f.unsynced += int64(len(keep))
		f.gUnsynced.Set(f.unsynced)
		records := 0
		for off := 0; off < len(keep); {
			kind, lsn, body, next, ok := wal.ParseFrame(keep, off)
			if !ok {
				return fmt.Errorf("repl: corrupt frame after write at offset %d", off)
			}
			if err := wal.ApplyRecord(kind, lsn, body, f.cat, f.store, &f.stats); err != nil {
				return fmt.Errorf("repl: apply lsn %d: %w", lsn, err)
			}
			records++
			off = next
		}
		// Epoch records replayed from the stream fence this follower's log
		// the same way they fence the primary's.
		if f.stats.Epoch > f.log.Epoch() {
			f.log.SetEpoch(f.stats.Epoch, f.stats.EpochLSN)
		}
		f.applied.Store(maxLSN)
		f.mgr.SeedLSN(maxLSN)
		f.mApplied.Add(int64(records))
		f.mBytes.Add(int64(len(keep)))
		f.mBatches.Inc()
	} else {
		f.mHeartbeats.Inc()
	}

	if primaryLast > f.primaryLSN.Load() {
		f.primaryLSN.Store(primaryLast)
	}
	f.lastWall.Store(wall)
	now := f.wallNow()
	var lagLSN int64
	if p := f.primaryLSN.Load(); p > maxLSN {
		lagLSN = int64(p - maxLSN)
	}
	f.gLagLSN.Set(lagLSN)
	lagMs := (now - wall) / 1000
	if lagMs < 0 {
		lagMs = 0
	}
	f.gLagMs.Set(lagMs)
	// Each batch is one staleness sample: the derived data here is the
	// whole replica, stale by (local now − primary wall at send).
	tok := f.stale.Track(wall)
	f.stale.Observe(tok, now)

	if len(keep) == 0 || time.Since(f.lastSync) >= f.cfg.Heartbeat {
		// An injected sync failure keeps the bytes and is retried at the next
		// cadence point; only the log's sticky error ends the stream.
		if err := f.syncLog(); err != nil && f.log.Err() != nil {
			return err
		}
	}
	return nil
}

// syncLog fsyncs the local log if it holds applied frames that are not yet
// durable, and then advances the durable LSN to the applied one.
func (f *Follower) syncLog() error {
	f.lastSync = time.Now()
	if f.unsynced == 0 {
		return nil
	}
	if err := f.log.SyncFrames(); err != nil {
		f.lastErr.Store(err.Error())
		return fmt.Errorf("repl: sync log: %w", err)
	}
	f.unsynced = 0
	f.gUnsynced.Set(0)
	f.durable.Store(f.applied.Load())
	f.mLogSyncs.Inc()
	return nil
}

// installSnapshot performs a full resync: durably install the shipped
// checkpoint file, wipe in-memory state, reload, and restart the local log
// at the checkpoint LSN. Readers see a retryable "resyncing" state; tables
// they already hold pointers to stay valid (dropped tables are simply
// unreachable for new transactions).
//
// Crash safety: the shipped snapshot replaces snapshot.db before the log
// is truncated. A crash between the two recovers from the NEW snapshot
// plus the OLD log — whose LSNs are all at or below the snapshot LSN
// (that is why a resync was needed), so recovery skips them all.
func (f *Follower) installSnapshot(raw []byte, snapLSN uint64) error {
	f.resyncing.Store(true)
	defer f.resyncing.Store(false)
	if err := wal.WriteShippedSnapshot(f.log.Dir(), raw); err != nil {
		return err
	}
	for _, name := range f.cat.Names() {
		f.store.Drop(name) //nolint:errcheck
		f.cat.Drop(name)   //nolint:errcheck
	}
	var stats wal.RecoveryStats
	lsn, err := wal.LoadSnapshotBytes(raw, f.cat, f.store, &stats)
	if err != nil {
		return fmt.Errorf("repl: load shipped snapshot: %w", err)
	}
	if lsn != snapLSN {
		return fmt.Errorf("repl: shipped snapshot covers lsn %d, header said %d", lsn, snapLSN)
	}
	if err := f.log.ResetForResync(lsn); err != nil {
		return err
	}
	f.unsynced = 0
	f.gUnsynced.Set(0)
	f.applied.Store(lsn)
	f.durable.Store(lsn)
	f.mgr.SeedLSN(lsn)
	f.resyncs.Add(1)
	f.reg.Counter(obs.MReplResyncs).Inc()
	return nil
}
