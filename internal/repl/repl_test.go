package repl

import (
	"fmt"
	"net"
	"sort"
	"testing"
	"time"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/cost"
	"github.com/stripdb/strip/internal/lock"
	"github.com/stripdb/strip/internal/server"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
	"github.com/stripdb/strip/internal/wal"
)

// env is a durable engine core (manager + log), as the strip facade wires
// it.
type env struct {
	cat   *catalog.Catalog
	store *storage.Store
	mgr   *txn.Manager
	wal   *wal.Log
}

func openEnv(t testing.TB, dir string) *env {
	t.Helper()
	return openEnvOpts(t, dir, wal.Options{})
}

func openEnvOpts(t testing.TB, dir string, opts wal.Options) *env {
	t.Helper()
	cat := catalog.New()
	store := storage.NewStore()
	mgr := txn.NewManager(cat, store, lock.New(), clock.NewReal(), cost.NewMeter(), cost.Zero())
	w, err := wal.Open(dir, opts, cat, store)
	if err != nil {
		t.Fatal(err)
	}
	mgr.SetWAL(w)
	mgr.SeedLSN(w.NextLSN() - 1)
	return &env{cat: cat, store: store, mgr: mgr, wal: w}
}

func (e *env) createTable(t testing.TB, name string) {
	t.Helper()
	schema := catalog.MustSchema(name,
		catalog.Column{Name: "k", Kind: types.KindString},
		catalog.Column{Name: "v", Kind: types.KindInt})
	if err := e.cat.Define(schema); err != nil {
		t.Fatal(err)
	}
	if _, err := e.store.Create(schema); err != nil {
		t.Fatal(err)
	}
	if err := e.wal.LogCreateTable(schema); err != nil {
		t.Fatal(err)
	}
}

func (e *env) insert(t testing.TB, table, k string, v int64) {
	t.Helper()
	tx := e.mgr.Begin()
	if _, err := tx.Insert(table, []types.Value{types.Str(k), types.Int(v)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func (e *env) rows(t testing.TB, table string) []string {
	t.Helper()
	tbl, ok := e.store.Get(table)
	if !ok {
		return nil
	}
	var out []string
	tbl.Scan(func(r *storage.Record) bool {
		out = append(out, fmt.Sprint(r.Values()))
		return true
	})
	sort.Strings(out)
	return out
}

func (e *env) follower(t testing.TB) *Follower {
	t.Helper()
	return NewFollower(Config{Primary: "unused:0"}, e.wal, e.cat, e.store, e.mgr, nil)
}

// historyFrames captures the primary's whole durable log as one shippable
// frame batch.
func historyFrames(t testing.TB, l *wal.Log) (frames []byte, lastLSN uint64) {
	t.Helper()
	sub, err := l.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	return sub.History, sub.LastLSN
}

// TestApplyBatchIdempotent is the recovery-path idempotence contract: a
// follower receiving the same WAL segment twice (the shape of every
// reconnect that resumes from an already-covered LSN) must apply it exactly
// once — same rows, no duplicate versions, no duplicate log frames.
func TestApplyBatchIdempotent(t *testing.T) {
	p := openEnv(t, t.TempDir())
	defer p.wal.Close()
	p.createTable(t, "t")
	p.insert(t, "t", "a", 1)
	p.insert(t, "t", "b", 2)
	p.insert(t, "t", "c", 3)

	frames, lastLSN := historyFrames(t, p.wal)
	want := p.rows(t, "t")

	rdir := t.TempDir()
	r := openEnv(t, rdir)
	f := r.follower(t)
	wall := time.Now().UnixMicro()
	if err := f.applyBatch(lastLSN, wall, frames); err != nil {
		t.Fatal(err)
	}
	if got := r.rows(t, "t"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replica rows %v, want %v", got, want)
	}
	if got := f.AppliedLSN(); got != lastLSN {
		t.Fatalf("applied LSN %d, want %d", got, lastLSN)
	}

	size, next := r.wal.Size(), r.wal.NextLSN()
	tbl, _ := r.store.Get("t")
	versions := tbl.Stats().VersionsRetained

	// Second delivery of the identical segment: a strict no-op.
	if err := f.applyBatch(lastLSN, wall, frames); err != nil {
		t.Fatal(err)
	}
	if got := r.rows(t, "t"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("double replay changed rows: %v, want %v", got, want)
	}
	if got := r.wal.Size(); got != size {
		t.Fatalf("double replay grew the replica log: %d -> %d", size, got)
	}
	if got := r.wal.NextLSN(); got != next {
		t.Fatalf("double replay consumed LSNs: %d -> %d", next, got)
	}
	if got := tbl.Stats().VersionsRetained; got != versions {
		t.Fatalf("double replay duplicated versions: %d -> %d", versions, got)
	}

	// The persisted log must recover to the same state (no duplicate LSNs
	// hiding in the file).
	if err := r.wal.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := openEnv(t, rdir)
	defer r2.wal.Close()
	if got := r2.rows(t, "t"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered replica rows %v, want %v", got, want)
	}
	if got := r2.wal.NextLSN(); got != next {
		t.Fatalf("recovered NextLSN %d, want %d", got, next)
	}
}

// TestApplyBatchPartialOverlap: a reconnect batch that straddles the
// applied LSN applies only the unseen suffix.
func TestApplyBatchPartialOverlap(t *testing.T) {
	p := openEnv(t, t.TempDir())
	defer p.wal.Close()
	p.createTable(t, "t")
	p.insert(t, "t", "a", 1)
	frames1, last1 := historyFrames(t, p.wal)

	r := openEnv(t, t.TempDir())
	defer r.wal.Close()
	f := r.follower(t)
	if err := f.applyBatch(last1, time.Now().UnixMicro(), frames1); err != nil {
		t.Fatal(err)
	}

	p.insert(t, "t", "b", 2)
	frames2, last2 := historyFrames(t, p.wal) // whole log again: overlaps frames1
	if err := f.applyBatch(last2, time.Now().UnixMicro(), frames2); err != nil {
		t.Fatal(err)
	}
	if got, want := r.rows(t, "t"), p.rows(t, "t"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replica rows %v, want %v", got, want)
	}
	if got := f.AppliedLSN(); got != last2 {
		t.Fatalf("applied LSN %d, want %d", got, last2)
	}
}

// TestApplyBatchAdoptsEpoch: an epoch record arriving in the stream fences
// the follower's own log.
func TestApplyBatchAdoptsEpoch(t *testing.T) {
	p := openEnv(t, t.TempDir())
	defer p.wal.Close()
	p.createTable(t, "t")
	if _, err := p.wal.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	frames, last := historyFrames(t, p.wal)

	r := openEnv(t, t.TempDir())
	defer r.wal.Close()
	f := r.follower(t)
	if err := f.applyBatch(last, time.Now().UnixMicro(), frames); err != nil {
		t.Fatal(err)
	}
	if got := r.wal.Epoch(); got != p.wal.Epoch() {
		t.Fatalf("replica epoch %d, want %d", got, p.wal.Epoch())
	}
}

func readFrameT(t *testing.T, conn net.Conn) (byte, []byte) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	typ, payload, err := server.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	return typ, payload
}

// TestShipperFencesNewerEpochRequester: a requester that has seen a newer
// fencing epoch than this primary proves this primary is deposed; the
// stream is refused with the fenced code.
func TestShipperFencesNewerEpochRequester(t *testing.T) {
	p := openEnv(t, t.TempDir())
	defer p.wal.Close()
	p.createTable(t, "t")

	sh := NewShipper(p.wal, nil, 10*time.Millisecond)
	c1, c2 := net.Pipe()
	defer c1.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- sh.ServeStream(c2, 0, 99, nil) }()

	typ, payload := readFrameT(t, c1)
	if typ != server.FrameErr {
		t.Fatalf("frame 0x%02x, want ERR", typ)
	}
	code, _, err := server.DecodeErr(payload)
	if err != nil {
		t.Fatal(err)
	}
	if code != server.CodeFenced {
		t.Fatalf("code %v, want fenced", code)
	}
	if err := <-errCh; err == nil {
		t.Fatal("ServeStream returned nil for a fenced requester")
	}
}

// TestShipperFencesDivergentFollower: a follower on an older epoch whose
// log extends past the fence point carries divergent history and must not
// stream.
func TestShipperFencesDivergentFollower(t *testing.T) {
	p := openEnv(t, t.TempDir())
	defer p.wal.Close()
	p.createTable(t, "t")
	p.insert(t, "t", "a", 1)
	if _, err := p.wal.BumpEpoch(); err != nil {
		t.Fatal(err)
	}
	fence := p.wal.EpochLSN()
	p.insert(t, "t", "b", 2) // grow past the fence so a divergent LSN exists

	sh := NewShipper(p.wal, nil, 10*time.Millisecond)
	c1, c2 := net.Pipe()
	defer c1.Close()
	errCh := make(chan error, 1)
	go func() { errCh <- sh.ServeStream(c2, fence+1, 0, nil) }()

	typ, payload := readFrameT(t, c1)
	if typ != server.FrameErr {
		t.Fatalf("frame 0x%02x, want ERR", typ)
	}
	if code, _, _ := server.DecodeErr(payload); code != server.CodeFenced {
		t.Fatalf("code %v, want fenced", code)
	}
	<-errCh

	// The same follower at or below the fence point streams normally: it
	// just has not replayed the epoch record yet.
	c3, c4 := net.Pipe()
	defer c3.Close()
	stop := make(chan struct{})
	go func() { errCh <- sh.ServeStream(c4, fence-1, 0, stop) }()
	typ, _ = readFrameT(t, c3)
	if typ != server.FrameReplHdr {
		t.Fatalf("frame 0x%02x, want REPL_HDR", typ)
	}
	close(stop)
	c3.Close()
	<-errCh
}

// TestShipperStreamsHistoryThenLive: a subscription covers the durable
// prefix and then live appends, in order, with no gap.
func TestShipperStreamsHistoryThenLive(t *testing.T) {
	p := openEnv(t, t.TempDir())
	defer p.wal.Close()
	p.createTable(t, "t")
	p.insert(t, "t", "a", 1)

	sh := NewShipper(p.wal, nil, 20*time.Millisecond)
	c1, c2 := net.Pipe()
	defer c1.Close()
	stop := make(chan struct{})
	defer close(stop)
	go sh.ServeStream(c2, 0, 0, stop) //nolint:errcheck

	typ, payload := readFrameT(t, c1)
	if typ != server.FrameReplHdr {
		t.Fatalf("frame 0x%02x, want REPL_HDR", typ)
	}
	_, _, lastLSN, resync, err := server.DecodeReplHdr(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resync {
		t.Fatal("resync requested with no checkpoint gap")
	}

	// Replay everything the shipper sends into a fresh follower; stop once
	// it has both the history and a post-subscription live commit.
	r := openEnv(t, t.TempDir())
	defer r.wal.Close()
	f := r.follower(t)
	p.insert(t, "t", "live", 42)
	deadline := time.Now().Add(5 * time.Second)
	for f.AppliedLSN() <= lastLSN {
		if time.Now().After(deadline) {
			t.Fatal("live frame never arrived")
		}
		typ, payload := readFrameT(t, c1)
		if typ != server.FrameReplBatch {
			t.Fatalf("frame 0x%02x, want REPL_BATCH", typ)
		}
		last, wall, frames, err := server.DecodeReplBatch(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.applyBatch(last, wall, frames); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := r.rows(t, "t"), p.rows(t, "t"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("replica rows %v, want %v", got, want)
	}
}
