package wal

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stripdb/strip/internal/fault"
	"github.com/stripdb/strip/internal/types"
)

// frameLSNs walks a frame buffer and returns each frame's LSN.
func frameLSNs(t testing.TB, b []byte) []uint64 {
	t.Helper()
	var out []uint64
	for off := 0; off < len(b); {
		_, lsn, _, next, ok := readFrame(b, off)
		if !ok {
			t.Fatalf("unreadable frame at offset %d of %d", off, len(b))
		}
		out = append(out, lsn)
		off = next
	}
	return out
}

// tryInsert commits one row, returning the error for goroutines that may not
// call t.Fatal.
func (e *env) tryInsert(table string, row ...types.Value) error {
	tx := e.mgr.Begin()
	if _, err := tx.Insert(table, row); err != nil {
		return err
	}
	return tx.Commit()
}

// drainTo collects a subscription's LSNs — history, then tap — until it has
// seen lsn `last`.
func drainTo(t *testing.T, sub *Subscription, last uint64) []uint64 {
	t.Helper()
	got := frameLSNs(t, sub.History)
	stop := make(chan struct{})
	timer := time.AfterFunc(10*time.Second, func() { close(stop) })
	defer timer.Stop()
	for len(got) == 0 || got[len(got)-1] < last {
		chunk, ok, _ := sub.Tap.NextTimeout(stop, time.Hour)
		if !ok {
			t.Fatalf("tap ended (lagged=%v) at lsn %v, want %d", sub.Tap.Lagged(), got, last)
		}
		got = append(got, frameLSNs(t, chunk)...)
	}
	return got
}

// TestSubscribeUnderCommitLoad: subscriptions taken while two goroutines
// commit continuously each deliver every LSN after their starting point
// exactly once, in order — history and tap meet with no gap and no overlap
// even though the file is read outside the log mutex.
func TestSubscribeUnderCommitLoad(t *testing.T) {
	e := newEnv(t, t.TempDir(), Options{})
	defer e.wal.Close()
	e.createTable(t, "t", intCol("worker"), intCol("seq"))

	// 2 × 300 commits stay under tapQueueCap, so the first tap holds them all.
	const committers, perCommitter, subs = 2, 300, 20
	var wg sync.WaitGroup
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perCommitter; i++ {
				if err := e.tryInsert("t", types.Int(int64(w)), types.Int(int64(i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	type taken struct {
		from uint64
		sub  *Subscription
	}
	var all []taken
	for i := 0; i < subs; i++ {
		// Spread the subscriptions over the run: wait for some commits to land
		// between them (pacing only; correctness does not depend on it).
		next := uint64(1 + i*committers*perCommitter/subs)
		for e.wal.NextLSN() <= next {
			time.Sleep(200 * time.Microsecond)
		}
		from := uint64(i % 3 * i) // 0, and a few mid-log starting points
		sub, err := e.wal.Subscribe(from)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Cancel()
		all = append(all, taken{from, sub})
	}
	wg.Wait()
	last := e.wal.NextLSN() - 1
	if want := uint64(1 + committers*perCommitter); last != want {
		t.Fatalf("last LSN %d, want %d", last, want)
	}
	for i, tk := range all {
		got := drainTo(t, tk.sub, last)
		if uint64(len(got)) != last-tk.from {
			t.Fatalf("subscription %d from %d: %d frames, want %d", i, tk.from, len(got), last-tk.from)
		}
		for j, lsn := range got {
			if lsn != tk.from+1+uint64(j) {
				t.Fatalf("subscription %d from %d: frame %d carries lsn %d (gap or overlap)", i, tk.from, j, lsn)
			}
		}
		if _, ok := tk.sub.Tap.TryNext(); ok {
			t.Fatalf("subscription %d: frames past the last LSN", i)
		}
	}
}

// TestSubscribeRacesCheckpoint: a checkpoint that truncates the log while a
// subscription is reading it outside the mutex is detected — the subscriber
// gets ErrGap or a history that is whole, never a mix of two logs.
func TestSubscribeRacesCheckpoint(t *testing.T) {
	e := newEnv(t, t.TempDir(), Options{})
	defer e.wal.Close()
	e.createTable(t, "t", intCol("v"))
	if _, err := e.wal.BumpEpoch(); err != nil { // every checkpoint re-appends a frame
		t.Fatal(err)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for round := 0; round < 30; round++ {
			for i := 0; i < 5; i++ {
				if err := e.tryInsert("t", types.Int(int64(round*5+i))); err != nil {
					t.Error(err)
				}
			}
			ctx := e.mgr.Begin()
			if err := e.wal.Checkpoint(ctx, e.cat, e.store); err != nil {
				t.Error(err)
			}
			if err := ctx.Commit(); err != nil {
				t.Error(err)
			}
		}
	}()
	for !done.Load() {
		from := e.wal.SnapLSN()
		sub, err := e.wal.Subscribe(from)
		if errors.Is(err, ErrGap) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		lsns := frameLSNs(t, sub.History)
		for j, lsn := range lsns {
			if lsn != from+1+uint64(j) {
				t.Fatalf("history from %d: frame %d carries lsn %d", from, j, lsn)
			}
		}
		if want := from + uint64(len(lsns)); sub.LastLSN != want {
			t.Fatalf("LastLSN %d, history from %d ends at %d", sub.LastLSN, from, want)
		}
		sub.Cancel()
	}
	wg.Wait()
}

// countingFile counts the Write calls that reach the log file.
type countingFile struct {
	File
	writes atomic.Int64
}

func (c *countingFile) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.File.Write(p)
}

// TestFlushWritesBatchOnce: a group-commit batch is one Write of one buffer,
// and that buffer is what the taps receive.
func TestFlushWritesBatchOnce(t *testing.T) {
	var cf *countingFile
	e := newEnv(t, t.TempDir(), Options{OpenFile: func(path string) (File, error) {
		f, err := openOSFile(path)
		cf = &countingFile{File: f}
		return cf, err
	}})
	defer e.wal.Close()
	sub, err := e.wal.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()

	batch := make([]*commitReq, 3)
	for i := range batch {
		ops := []redoOp{{kind: opInsert, table: "t", new: []types.Value{types.Int(int64(i))}}}
		batch[i] = &commitReq{body: encodeCommit(int64(i), 0, ops), done: make(chan error, 1)}
	}
	before, size := cf.writes.Load(), e.wal.Size()
	e.wal.flush(batch)
	for _, r := range batch {
		if err := <-r.done; err != nil {
			t.Fatal(err)
		}
	}
	if got := cf.writes.Load() - before; got != 1 {
		t.Fatalf("a 3-record batch cost %d writes, want 1", got)
	}
	chunk, ok := sub.Tap.TryNext()
	if !ok {
		t.Fatal("batch not published")
	}
	if got := frameLSNs(t, chunk); fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("published LSNs %v, want [1 2 3]", got)
	}
	if int64(len(chunk)) != e.wal.Size()-size {
		t.Fatalf("published %d bytes, log grew by %d", len(chunk), e.wal.Size()-size)
	}
	if _, ok := sub.Tap.TryNext(); ok {
		t.Fatal("batch published as more than one chunk")
	}
}

// receivedFrames commits n rows on a fresh primary and returns its log as a
// follower would receive it.
func receivedFrames(t *testing.T, n int) (frames []byte, last uint64) {
	t.Helper()
	p := newEnv(t, t.TempDir(), Options{})
	defer p.wal.Close()
	p.createTable(t, "t", intCol("v"))
	for i := 0; i < n; i++ {
		p.insert(t, "t", []types.Value{types.Int(int64(i))})
	}
	sub, err := p.wal.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	return sub.History, sub.LastLSN
}

// TestAppendFramesPublishAfterSync is the cascade rule: frames a replica has
// written but not synced reach neither a tap on its log nor a new
// subscription's history; SyncFrames delivers them to both exactly once.
func TestAppendFramesPublishAfterSync(t *testing.T) {
	frames, last := receivedFrames(t, 3)
	r := newEnv(t, t.TempDir(), Options{})
	defer r.wal.Close()
	early, err := r.wal.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer early.Cancel()
	fsyncs := r.wal.fsyncs.Load()

	if err := r.wal.AppendFrames(frames, last); err != nil {
		t.Fatal(err)
	}
	if got := r.wal.fsyncs.Load(); got != fsyncs {
		t.Fatalf("AppendFrames fsynced (%d -> %d)", fsyncs, got)
	}
	if got := r.wal.NextLSN(); got != last+1 {
		t.Fatalf("NextLSN %d, want %d", got, last+1)
	}
	if _, ok := early.Tap.TryNext(); ok {
		t.Fatal("tap received frames before the replica synced them")
	}
	mid, err := r.wal.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer mid.Cancel()
	if len(mid.History) != 0 || mid.LastLSN != 0 {
		t.Fatalf("unsynced frames in a subscription's history: %d bytes, LastLSN %d", len(mid.History), mid.LastLSN)
	}

	if err := r.wal.SyncFrames(); err != nil {
		t.Fatal(err)
	}
	if got := r.wal.fsyncs.Load(); got != fsyncs+1 {
		t.Fatalf("SyncFrames cost %d fsyncs, want 1", got-fsyncs)
	}
	for name, sub := range map[string]*Subscription{"early": early, "mid": mid} {
		chunk, ok := sub.Tap.TryNext()
		if !ok || !bytes.Equal(chunk, frames) {
			t.Fatalf("%s tap after sync: ok=%v, %d bytes, want %d", name, ok, len(chunk), len(frames))
		}
	}
	late, err := r.wal.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer late.Cancel()
	if !bytes.Equal(late.History, frames) || late.LastLSN != last {
		t.Fatalf("history after sync: %d bytes LastLSN %d, want %d bytes LastLSN %d", len(late.History), late.LastLSN, len(frames), last)
	}
	// Nothing left to sync: free.
	if err := r.wal.SyncFrames(); err != nil {
		t.Fatal(err)
	}
	if got := r.wal.fsyncs.Load(); got != fsyncs+1 {
		t.Fatalf("an idle SyncFrames fsynced (%d -> %d)", fsyncs+1, got)
	}
}

// TestSyncFramesInjectedFailureKeepsFrames: an injected fsync failure must
// not truncate frames the replica has already applied; the next sync
// succeeds and publishes them.
func TestSyncFramesInjectedFailureKeepsFrames(t *testing.T) {
	frames, last := receivedFrames(t, 2)
	r := newEnv(t, t.TempDir(), Options{})
	defer r.wal.Close()
	sub, err := r.wal.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	if err := r.wal.AppendFrames(frames, last); err != nil {
		t.Fatal(err)
	}
	size := r.wal.Size()

	fault.Enable(fault.WalSyncFail, fault.Spec{Limit: 1})
	defer fault.Reset()
	if err := r.wal.SyncFrames(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("SyncFrames = %v, want the injected failure", err)
	}
	if err := r.wal.Err(); err != nil {
		t.Fatalf("injected failure left the log sticky-failed: %v", err)
	}
	if got := r.wal.Size(); got != size {
		t.Fatalf("failed sync changed the log size %d -> %d", size, got)
	}
	if _, ok := sub.Tap.TryNext(); ok {
		t.Fatal("frames published by a failed sync")
	}
	if err := r.wal.SyncFrames(); err != nil {
		t.Fatal(err)
	}
	if chunk, ok := sub.Tap.TryNext(); !ok || !bytes.Equal(chunk, frames) {
		t.Fatal("retry did not publish the frames")
	}
}

// benchGroupCommit drives closed-loop committers through LogCommit, each
// pausing think between an ack and its next commit, and reports what a
// commit costs: fsyncs/op (1.0 means no two committers ever shared one),
// the mean LogCommit stall, and lingers/op.
func benchGroupCommit(b *testing.B, committers int, think time.Duration) {
	e := newEnv(b, b.TempDir(), Options{})
	defer e.wal.Close()
	e.createTable(b, "t", intCol("worker"), intCol("seq"))
	fsyncs, lingers, stall := e.wal.fsyncs.Load(), e.wal.lingers.Load(), e.wal.stallHist.Sum()
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ReportAllocs()
	b.ResetTimer()
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i > int64(b.N) {
					return
				}
				if err := e.tryInsert("t", types.Int(int64(w)), types.Int(i)); err != nil {
					b.Error(err)
					return
				}
				pause(think)
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(e.wal.fsyncs.Load()-fsyncs)/float64(b.N), "fsyncs/op")
	b.ReportMetric(float64(e.wal.stallHist.Sum()-stall)/float64(b.N), "stall-µs/op")
	b.ReportMetric(float64(e.wal.lingers.Load()-lingers)/float64(b.N), "lingers/op")
}

func BenchmarkGroupCommit1Committers(b *testing.B) { benchGroupCommit(b, 1, 0) }
func BenchmarkGroupCommit2Committers(b *testing.B) { benchGroupCommit(b, 2, 0) }
func BenchmarkGroupCommit8Committers(b *testing.B) { benchGroupCommit(b, 8, 0) }

// BenchmarkGroupCommit2CommittersThink is the regime the end-to-end run
// sees: the client round trip between an ack and the next commit is what
// made the two cohorts miss each other.
func BenchmarkGroupCommit2CommittersThink(b *testing.B) {
	benchGroupCommit(b, 2, 100*time.Microsecond)
}
