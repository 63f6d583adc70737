package repl

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/stripdb/strip/internal/fault"
	"github.com/stripdb/strip/internal/obs"
	"github.com/stripdb/strip/internal/server"
	"github.com/stripdb/strip/internal/wal"
)

// These tests hold the replica's durability contract: it writes, applies and
// only then — on the heartbeat cadence, and at stream end / Close / Promote —
// fsyncs its log. The model of what an operating-system crash may take is
// crashDisk: everything written since the last successful Sync, down to a
// torn remainder.

// crashDisk opens a replica's log through files that remember how much of it
// has been fsynced.
type crashDisk struct {
	rng *rand.Rand

	mu      sync.Mutex
	path    string
	f       *os.File
	size    int64 // written
	synced  int64 // size at the last successful Sync
	crashed bool
}

var errCrashed = errors.New("crashDisk: the machine is down")

// open is the wal.OpenFileFunc. What is on disk at open time is durable: a
// crash has already cut the file to what survived.
func (d *crashDisk) open(path string) (wal.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.path, d.f, d.size, d.synced, d.crashed = path, f, st.Size(), st.Size(), false
	return crashFile{d}, nil
}

// crash is the operating system going down: the file keeps its synced prefix
// plus a seeded 0..n bytes of the n written after it (whole frames, a torn
// one, or nothing), and every later operation of the dead process fails.
func (d *crashDisk) crash(t testing.TB) (lost int64) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	keep := d.synced
	if n := d.size - d.synced; n > 0 {
		keep += d.rng.Int63n(n + 1)
	}
	if err := os.Truncate(d.path, keep); err != nil {
		t.Fatal(err)
	}
	d.crashed = true
	return d.size - keep
}

type crashFile struct{ d *crashDisk }

func (c crashFile) Write(p []byte) (int, error) {
	d := c.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return 0, errCrashed
	}
	n, err := d.f.Write(p)
	d.size += int64(n)
	return n, err
}

func (c crashFile) Sync() error {
	d := c.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return errCrashed
	}
	if err := d.f.Sync(); err != nil {
		return err
	}
	d.synced = d.size
	return nil
}

func (c crashFile) Truncate(size int64) error {
	d := c.d
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return errCrashed
	}
	if err := d.f.Truncate(size); err != nil {
		return err
	}
	d.size = size
	if d.synced > size {
		d.synced = size
	}
	return nil
}

func (c crashFile) Close() error { return c.d.f.Close() }

// primarySrv stands in for stripd's session layer in front of a Shipper: it
// answers the handshake and hands the connection over, recording the LSN
// each stream asked to resume from.
type primarySrv struct {
	ln   net.Listener
	sh   *Shipper
	stop chan struct{}
	wg   sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn
	froms []uint64
}

func servePrimary(t testing.TB, p *env, heartbeat time.Duration) *primarySrv {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &primarySrv{ln: ln, sh: NewShipper(p.wal, nil, heartbeat), stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer conn.Close()
				s.serve(conn) //nolint:errcheck // the follower sees and reports stream errors
			}()
		}
	}()
	t.Cleanup(s.close)
	return s
}

func (s *primarySrv) serve(conn net.Conn) error {
	if typ, _, err := server.ReadFrame(conn); err != nil || typ != server.FrameHello {
		return fmt.Errorf("hello: frame 0x%02x, %v", typ, err)
	}
	if err := server.WriteFrame(conn, server.FrameWelcome, server.EncodeWelcome(1)); err != nil {
		return err
	}
	typ, payload, err := server.ReadFrame(conn)
	if err != nil || typ != server.FrameReplStream {
		return fmt.Errorf("repl stream: frame 0x%02x, %v", typ, err)
	}
	from, epoch, err := server.DecodeReplStream(payload)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.froms = append(s.froms, from)
	s.mu.Unlock()
	return s.sh.ServeStream(conn, from, epoch, s.stop)
}

func (s *primarySrv) addr() string { return s.ln.Addr().String() }

// requested returns the resume LSN of every stream served so far.
func (s *primarySrv) requested() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.froms...)
}

func (s *primarySrv) close() {
	select {
	case <-s.stop:
		return
	default:
	}
	close(s.stop)
	s.ln.Close()
	s.mu.Lock()
	for _, c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// startFollower runs a follower of srv over e with the given heartbeat.
func startFollower(t testing.TB, e *env, srv *primarySrv, heartbeat time.Duration) *Follower {
	t.Helper()
	f := NewFollower(Config{Primary: srv.addr(), Heartbeat: heartbeat},
		e.wal, e.cat, e.store, e.mgr, nil)
	f.Start()
	return f
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// never is a heartbeat long enough that no cadence point falls inside a test:
// whatever such a follower applies stays unsynced until something forces it.
const never = time.Hour

// TestFollowerSurvivesOSCrashes drives one replica directory through a few
// hundred single-record batches with operating-system crashes at seeded
// points. Every restart must recover, ask the primary for exactly what
// recovery found (never a resync), never come back below an LSN it had
// reported durable, and end with the primary's rows.
//
// Whether a crash lands before or after a cadence sync is up to the
// scheduler, so the first round holds the sync off: its follower and the
// primary it streams from run with no cadence (never), and it crashes once
// the whole round is applied, with all of it unsynced.
func TestFollowerSurvivesOSCrashes(t *testing.T) {
	const seed, rounds, perRound = 1, 10, 30
	rng := rand.New(rand.NewSource(seed))
	p := openEnv(t, t.TempDir())
	defer p.wal.Close()
	p.createTable(t, "t")
	srv := servePrimary(t, p, 2*time.Millisecond)
	quiet := servePrimary(t, p, never)

	rdir := t.TempDir()
	disk := &crashDisk{rng: rng}
	var lostBytes int64
	var durable uint64 // what the previous life had reported fsynced
	next := 0
	// life opens the directory after a crash and starts a follower on it,
	// streaming from srv with the given cadence.
	life := func(open wal.OpenFileFunc, srv *primarySrv, cadence time.Duration) (*env, *Follower) {
		r := openEnvOpts(t, rdir, wal.Options{OpenFile: open})
		recovered := r.wal.NextLSN() - 1
		if recovered < durable {
			t.Fatalf("recovered lsn %d is below the durable lsn %d reported before the crash", recovered, durable)
		}
		streams := len(srv.requested())
		f := startFollower(t, r, srv, cadence)
		// (A last dial of the previous life's follower may still be in the
		// listener's queue, so this is "asked for", not "asked first for".)
		waitFor(t, fmt.Sprintf("a stream resuming from the recovered lsn %d", recovered), func() bool {
			for _, from := range srv.requested()[streams:] {
				if from == recovered {
					return true
				}
			}
			return false
		})
		return r, f
	}
	for round := 0; round < rounds; round++ {
		held := round == 0
		from, cadence := srv, 2*time.Millisecond
		if held {
			from, cadence = quiet, never
		}
		r, f := life(disk.open, from, cadence)
		// Commit this round's rows one batch at a time, and pull the plug when
		// the replica has applied a seeded number of them — with a pause before
		// some so that crashes land on both sides of a cadence sync.
		crashAt := p.wal.NextLSN() + uint64(rng.Intn(perRound))
		for i := 0; i < perRound; i++ {
			p.insert(t, "t", fmt.Sprintf("k%04d", next), int64(next))
			next++
			if rng.Intn(8) == 0 {
				time.Sleep(3 * time.Millisecond)
			}
		}
		if held {
			crashAt = p.wal.NextLSN() - 1
		}
		waitFor(t, "the replica to reach the crash point", func() bool { return f.AppliedLSN() >= crashAt })
		durable = f.Status().DurableLSN
		if held && durable >= crashAt {
			t.Fatalf("round %d: durable lsn %d with the cadence held off; want the applied %d unsynced", round, durable, crashAt)
		}
		lostBytes += disk.crash(t)
		f.Close()
		r.wal.Close() //nolint:errcheck // the crashed file refuses the final sync
		if st := f.Status(); st.Resyncs != 0 {
			t.Fatalf("round %d: %d resyncs", round, st.Resyncs)
		}
	}
	if lostBytes == 0 {
		t.Fatal("no crash ever lost unsynced bytes: the model was not exercised")
	}

	// Final life: no crash. The replica converges on everything committed.
	r, f := life(nil, srv, 2*time.Millisecond)
	defer r.wal.Close()
	defer f.Close()
	last := p.wal.NextLSN() - 1
	waitFor(t, "convergence", func() bool { return f.AppliedLSN() == last })
	if got, want := r.rows(t, "t"), p.rows(t, "t"); fmt.Sprint(got) != fmt.Sprint(want) || len(want) != rounds*perRound {
		t.Fatalf("replica has %d rows, primary %d (want %d)", len(got), len(want), rounds*perRound)
	}
	if st := f.Status(); st.Resyncs != 0 {
		t.Fatalf("%d resyncs", st.Resyncs)
	}
	t.Logf("seed %d: %d crashes lost %d unsynced bytes in all", seed, rounds, lostBytes)
}

// unsyncedReplica streams n commits into a fresh replica whose cadence never
// fires, so all of them are applied and none is durable.
func unsyncedReplica(t *testing.T, n int) (p, r *env, f *Follower, disk *crashDisk, rdir string) {
	t.Helper()
	p = openEnv(t, t.TempDir())
	t.Cleanup(func() { p.wal.Close() })
	p.createTable(t, "t")
	for i := 0; i < n; i++ {
		p.insert(t, "t", fmt.Sprintf("k%d", i), int64(i))
	}
	srv := servePrimary(t, p, never)
	rdir = t.TempDir()
	disk = &crashDisk{rng: rand.New(rand.NewSource(2))}
	r = openEnvOpts(t, rdir, wal.Options{OpenFile: disk.open})
	f = startFollower(t, r, srv, never)
	last := p.wal.NextLSN() - 1
	waitFor(t, "the replica to apply the stream", func() bool { return f.AppliedLSN() == last })
	if st := f.Status(); st.DurableLSN != 0 {
		t.Fatalf("durable lsn %d before any sync point", st.DurableLSN)
	}
	return p, r, f, disk, rdir
}

// TestCloseSyncsAppliedFrames: a cleanly closed replica has lost nothing,
// even if the machine dies the moment Close returns.
func TestCloseSyncsAppliedFrames(t *testing.T) {
	p, r, f, disk, rdir := unsyncedReplica(t, 20)
	f.Close()
	st := f.Status()
	if st.DurableLSN != st.AppliedLSN || st.AppliedLSN != p.wal.NextLSN()-1 {
		t.Fatalf("after Close: durable %d, applied %d, primary %d", st.DurableLSN, st.AppliedLSN, p.wal.NextLSN()-1)
	}
	if lost := disk.crash(t); lost != 0 {
		t.Fatalf("crash after Close lost %d bytes", lost)
	}
	r.wal.Close() //nolint:errcheck

	r2 := openEnv(t, rdir)
	defer r2.wal.Close()
	if got := r2.wal.NextLSN() - 1; got != st.AppliedLSN {
		t.Fatalf("recovered lsn %d, the replica had applied %d", got, st.AppliedLSN)
	}
	if got, want := r2.rows(t, "t"), p.rows(t, "t"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered rows %v, want %v", got, want)
	}
}

// TestPromoteSyncsBeforeEpoch: a promoted replica holds every frame it had
// applied and, after them, the epoch record — even if the machine dies the
// moment Promote returns.
func TestPromoteSyncsBeforeEpoch(t *testing.T) {
	p, r, f, disk, rdir := unsyncedReplica(t, 20)
	epoch, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	st := f.Status()
	if !st.Promoted || st.DurableLSN != st.AppliedLSN || st.AppliedLSN != p.wal.NextLSN()-1 {
		t.Fatalf("after Promote: %+v, primary lsn %d", st, p.wal.NextLSN()-1)
	}
	if lost := disk.crash(t); lost != 0 {
		t.Fatalf("crash after Promote lost %d bytes", lost)
	}
	r.wal.Close() //nolint:errcheck

	r2 := openEnv(t, rdir)
	defer r2.wal.Close()
	if got, want := r2.rows(t, "t"), p.rows(t, "t"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered rows %v, want %v", got, want)
	}
	if got := r2.wal.Epoch(); got != epoch || epoch == 0 {
		t.Fatalf("recovered epoch %d, Promote stamped %d", got, epoch)
	}
	if got := r2.wal.EpochLSN(); got != st.AppliedLSN+1 {
		t.Fatalf("epoch record at lsn %d, want %d (right after the applied frames)", got, st.AppliedLSN+1)
	}
}

// splitFrames cuts a frame buffer into its frames.
func splitFrames(t testing.TB, b []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for off := 0; off < len(b); {
		_, _, _, next, ok := wal.ParseFrame(b, off)
		if !ok {
			t.Fatalf("unreadable frame at offset %d", off)
		}
		out = append(out, b[off:next])
		off = next
	}
	return out
}

// TestSyncCadence pins the three cadence rules on applyBatch itself: frames
// inside one heartbeat interval do not sync, a heartbeat does, and so does a
// frame that arrives once the interval has passed.
func TestSyncCadence(t *testing.T) {
	p := openEnv(t, t.TempDir())
	defer p.wal.Close()
	p.createTable(t, "t")
	for i := 0; i < 6; i++ {
		p.insert(t, "t", fmt.Sprintf("k%d", i), int64(i))
	}
	history, last := historyFrames(t, p.wal)
	frames := splitFrames(t, history)

	reg := obs.NewRegistry()
	r := openEnvOpts(t, t.TempDir(), wal.Options{Registry: reg})
	defer r.wal.Close()
	f := NewFollower(Config{Primary: "unused:0", Heartbeat: never}, r.wal, r.cat, r.store, r.mgr, reg)
	fsyncs := reg.Counter(obs.MWalFsyncs)
	base := fsyncs.Load()
	wall := time.Now().UnixMicro()

	for _, fr := range frames[:4] {
		if err := f.applyBatch(last, wall, fr); err != nil {
			t.Fatal(err)
		}
	}
	if st := f.Status(); st.AppliedLSN != 4 || st.DurableLSN != 0 || fsyncs.Load() != base {
		t.Fatalf("inside the interval: applied %d durable %d, %d fsyncs", st.AppliedLSN, st.DurableLSN, fsyncs.Load()-base)
	}
	var written int
	for _, fr := range frames[:4] {
		written += len(fr)
	}
	if got := reg.Gauge(obs.MReplUnsynced).Load(); got != int64(written) {
		t.Fatalf("repl.unsynced_bytes = %d, %d bytes written", got, written)
	}

	// A heartbeat: the stream has been idle for one interval.
	if err := f.applyBatch(last, wall, nil); err != nil {
		t.Fatal(err)
	}
	if st := f.Status(); st.DurableLSN != 4 || fsyncs.Load() != base+1 {
		t.Fatalf("after a heartbeat: durable %d, %d fsyncs", st.DurableLSN, fsyncs.Load()-base)
	}
	// A second heartbeat has nothing to sync.
	if err := f.applyBatch(last, wall, nil); err != nil {
		t.Fatal(err)
	}
	if fsyncs.Load() != base+1 {
		t.Fatal("an idle heartbeat fsynced")
	}

	// Frames keep arriving and the interval has passed.
	f.cfg.Heartbeat = time.Nanosecond
	if err := f.applyBatch(last, wall, frames[4]); err != nil {
		t.Fatal(err)
	}
	if st := f.Status(); st.AppliedLSN != 5 || st.DurableLSN != 5 || fsyncs.Load() != base+2 {
		t.Fatalf("past the interval: applied %d durable %d, %d fsyncs", st.AppliedLSN, st.DurableLSN, fsyncs.Load()-base)
	}
	if got := reg.Counter(obs.MReplLogSyncs).Load(); got != 2 {
		t.Fatalf("repl.log_syncs = %d, want 2", got)
	}
	if got := reg.Gauge(obs.MReplUnsynced).Load(); got != 0 {
		t.Fatalf("repl.unsynced_bytes = %d after a sync", got)
	}
}

// TestInjectedSyncFailureIsRetried: a sync that fails by injection at one
// cadence point truncates nothing and ends nothing; the next cadence point
// syncs, and the replica — in memory and re-opened — equals the primary.
func TestInjectedSyncFailureIsRetried(t *testing.T) {
	p := openEnv(t, t.TempDir())
	defer p.wal.Close()
	p.createTable(t, "t")
	for i := 0; i < 5; i++ {
		p.insert(t, "t", fmt.Sprintf("k%d", i), int64(i))
	}
	frames, last := historyFrames(t, p.wal)
	want := p.rows(t, "t")

	rdir := t.TempDir()
	r := openEnv(t, rdir)
	f := NewFollower(Config{Primary: "unused:0", Heartbeat: never}, r.wal, r.cat, r.store, r.mgr, nil)
	wall := time.Now().UnixMicro()
	if err := f.applyBatch(last, wall, frames); err != nil {
		t.Fatal(err)
	}
	size := r.wal.Size()

	fault.Enable(fault.WalSyncFail, fault.Spec{Limit: 1})
	defer fault.Reset()
	if err := f.applyBatch(last, wall, nil); err != nil {
		t.Fatalf("an injected sync failure ended the stream: %v", err)
	}
	if fault.Fired(fault.WalSyncFail) != 1 {
		t.Fatal("the fault did not fire at the cadence point")
	}
	st := f.Status()
	if st.DurableLSN != 0 || st.AppliedLSN != last || st.LastError == "" {
		t.Fatalf("after the failed sync: %+v", st)
	}
	if got := r.wal.Size(); got != size {
		t.Fatalf("the failed sync truncated applied frames: log %d -> %d bytes", size, got)
	}
	if got := r.rows(t, "t"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows %v, want %v", got, want)
	}

	if err := f.applyBatch(last, wall, nil); err != nil {
		t.Fatal(err)
	}
	if st := f.Status(); st.DurableLSN != last {
		t.Fatalf("the next cadence point left durable at %d, want %d", st.DurableLSN, last)
	}
	if err := r.wal.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := openEnv(t, rdir)
	defer r2.wal.Close()
	if got := r2.rows(t, "t"); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("re-opened rows %v, want %v", got, want)
	}
}

// BenchmarkFollowerApply pushes a pre-encoded stream of 1-record batches
// through applyBatch — the whole per-batch path of a standby: filter, log
// write, redo, publish, instruments, sync cadence.
func BenchmarkFollowerApply(b *testing.B) {
	p := openEnvOpts(b, b.TempDir(), wal.Options{NoSync: true})
	defer p.wal.Close()
	p.createTable(b, "t")
	for i := 0; i < b.N; i++ {
		p.insert(b, "t", fmt.Sprintf("k%07d", i), int64(i))
	}
	history, last := historyFrames(b, p.wal)
	frames := splitFrames(b, history)

	reg := obs.NewRegistry()
	r := openEnvOpts(b, b.TempDir(), wal.Options{Registry: reg})
	defer r.wal.Close()
	f := NewFollower(Config{Primary: "unused:0"}, r.wal, r.cat, r.store, r.mgr, reg)
	wall := time.Now().UnixMicro()
	if err := f.applyBatch(last, wall, frames[0]); err != nil { // the DDL
		b.Fatal(err)
	}
	fsyncs := reg.Counter(obs.MWalFsyncs).Load()
	b.ReportAllocs()
	b.ResetTimer()
	for _, fr := range frames[1:] {
		if err := f.applyBatch(last, wall, fr); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
	b.ReportMetric(float64(reg.Counter(obs.MWalFsyncs).Load()-fsyncs)/float64(b.N), "fsyncs/op")
}
