package wal

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/fault"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

// The group-commit policy tests run over a log file whose Sync reaches no
// disk: it takes the time the test sets, so what the flusher measures, and
// therefore how long it may linger, is the test's to choose.

// pause waits for d: asleep when d is long enough for the runtime's idle
// timer resolution (about a millisecond) not to matter, busy otherwise — as
// a client's round trip or a disk's fsync is.
func pause(d time.Duration) {
	if d >= time.Millisecond {
		time.Sleep(d)
		return
	}
	for t0 := time.Now(); time.Since(t0) < d; {
		runtime.Gosched()
	}
}

// slowFile passes writes through to the real file (page cache only, so
// Subscribe and recovery can read them back) and replaces Sync with a pause.
type slowFile struct {
	File
	syncTime atomic.Int64
}

func (f *slowFile) Sync() error {
	pause(time.Duration(f.syncTime.Load()))
	return nil
}

func (f *slowFile) setSync(d time.Duration) { f.syncTime.Store(int64(d)) }

// newSlowEnv opens an env over a slowFile and creates table t(worker, seq)
// with a DDL sync of syncTime, which seeds the flusher's sync estimate.
func newSlowEnv(t *testing.T, syncTime time.Duration) (*env, *slowFile) {
	t.Helper()
	sf := &slowFile{}
	e := newEnv(t, t.TempDir(), Options{OpenFile: func(path string) (File, error) {
		f, err := openOSFile(path)
		sf.File = f
		return sf, err
	}})
	sf.setSync(syncTime)
	e.createTable(t, "t", intCol("worker"), intCol("seq"))
	return e, sf
}

// closedLoop runs committers that each commit `commits` rows, pausing think
// between an ack and the next commit, and waits for them all.
func closedLoop(t *testing.T, e *env, committers, commits int, think time.Duration) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				if err := e.tryInsert("t", types.Int(int64(w)), types.Int(int64(i))); err != nil {
					t.Error(err)
					return
				}
				pause(think)
			}
		}(w)
	}
	wg.Wait()
}

// openWriter begins a transaction, writes one row and leaves it open.
func (e *env) openWriter(t *testing.T, worker int64) *txn.Txn {
	t.Helper()
	tx := e.mgr.Begin()
	if _, err := tx.Insert("t", []types.Value{types.Int(worker), types.Int(-1)}); err != nil {
		t.Fatal(err)
	}
	return tx
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// logBound is the futile lingers n commits may cost: each one doubles the
// commits passed up before the next, so they number about log2(n).
func logBound(n int) int64 { return int64(2 * math.Log2(float64(n))) }

// TestGroupCommitPairsClosedLoop: closed-loop committers whose think time is
// shorter than a sync settle into one cohort, not two that take turns.
func TestGroupCommitPairsClosedLoop(t *testing.T) {
	for _, tc := range []struct {
		name       string
		committers int
		max        float64 // fsyncs per commit after warm-up
	}{{"2", 2, 0.55}, {"8", 8, 0.16}} {
		t.Run(tc.name, func(t *testing.T) {
			e, _ := newSlowEnv(t, 4*time.Millisecond)
			defer e.wal.Close()
			// One run, measured from its ninth round on: stopping the
			// committers after a warm-up would end it on a lone commit, which
			// the flusher then takes a few rounds to forget.
			done := make(chan struct{})
			go func() {
				defer close(done)
				closedLoop(t, e, tc.committers, 48, time.Millisecond)
			}()
			warm := e.wal.appends.Load() + int64(8*tc.committers)
			waitFor(t, "the warm-up rounds", func() bool { return e.wal.appends.Load() >= warm })
			fsyncs, commits := e.wal.fsyncs.Load(), e.wal.appends.Load()
			<-done
			fsyncs, commits = e.wal.fsyncs.Load()-fsyncs, e.wal.appends.Load()-commits
			got := float64(fsyncs) / float64(commits)
			t.Logf("%d committers: %.3f fsyncs per commit", tc.committers, got)
			if got > tc.max {
				t.Fatalf("%d fsyncs for %d commits = %.3f per commit, want <= %.2f (lingers %d, futile %d, expecting %d)",
					fsyncs, commits, got, tc.max, e.wal.lingers.Load(), e.wal.lingersFutile.Load(), e.wal.expectGauge.Load())
			}
		})
	}
}

// TestGroupCommitLoneCommitterNeverLingers: with nobody to wait for, a commit
// stalls for its write and its sync and nothing else.
func TestGroupCommitLoneCommitterNeverLingers(t *testing.T) {
	e, _ := newSlowEnv(t, time.Millisecond)
	defer e.wal.Close()
	const n = 50
	syncs, stall := e.wal.fsyncHist.Sum(), e.wal.stallHist.Sum()
	closedLoop(t, e, 1, n, 0)
	if got := e.wal.lingers.Load(); got != 0 {
		t.Fatalf("a lone committer caused %d lingers", got)
	}
	syncs, stall = e.wal.fsyncHist.Sum()-syncs, e.wal.stallHist.Sum()-stall
	if slack := int64(n * 1000); stall > syncs+slack {
		t.Fatalf("%d commits stalled %d us over %d us of sync", n, stall, syncs)
	}
}

// TestGroupCommitOpenWriterBacksOff: a transaction that wrote and then sits
// open looks like a commit on its way. The flusher waits for it a
// logarithmic number of times, not once per commit.
func TestGroupCommitOpenWriterBacksOff(t *testing.T) {
	e, _ := newSlowEnv(t, 400*time.Microsecond)
	defer e.wal.Close()
	idle := e.openWriter(t, 99)
	defer idle.Abort() //nolint:errcheck // teardown
	const n = 1000
	syncs, stall := e.wal.fsyncHist.Sum(), e.wal.stallHist.Sum()
	closedLoop(t, e, 1, n, 0)
	lingers, futile := e.wal.lingers.Load(), e.wal.lingersFutile.Load()
	if lingers == 0 || lingers != futile || lingers > logBound(n) {
		t.Fatalf("%d lingers (%d futile) over %d commits, want all futile and between 1 and %d", lingers, futile, n, logBound(n))
	}
	// A commit stalls for its write, its sync, the hand-offs to and from the
	// flusher, and whatever the flusher lingered: the last is the policy's
	// share, and all of it that may exceed 1.0 x sync.
	syncs, stall = e.wal.fsyncHist.Sum()-syncs, e.wal.stallHist.Sum()-stall
	lingered := e.wal.lingerHist.Sum()
	t.Logf("%d futile lingers over %d commits; mean stall %d us, mean sync %d us, mean linger %d us", futile, n, stall/n, syncs/n, lingered/n)
	if 10*lingered > syncs {
		t.Fatalf("lingers added %d us to %d commits of %d us mean sync: more than 0.1x", lingered, n, syncs/n)
	}
}

// TestGroupCommitRowContention: a sibling that has written and then blocks on
// a row the batch holds cannot come, however open it looks. The wait for it
// is bounded by a sync time, and stops being tried.
func TestGroupCommitRowContention(t *testing.T) {
	e, _ := newSlowEnv(t, 5*time.Millisecond)
	defer e.wal.Close()
	e.createTable(t, "hot", intCol("v"))
	seed := e.mgr.Begin()
	cur, err := seed.Insert("hot", []types.Value{types.Int(0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	hotID := cur.ID()

	const committers, perCommitter = 2, 40
	var wg sync.WaitGroup
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perCommitter; i++ {
				// cur is read and replaced under the row's X lock, which the
				// replacement inherits.
				err := func() error {
					tx := e.mgr.Begin()
					if _, err := tx.Insert("t", []types.Value{types.Int(int64(w)), types.Int(int64(i))}); err != nil {
						return err
					}
					if err := tx.LockRecordExclusive("hot", hotID); err != nil {
						return err
					}
					next, err := tx.Update("hot", cur, []types.Value{types.Int(int64(i))})
					if err != nil {
						return err
					}
					cur = next
					return tx.Commit()
				}()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	const n = committers * perCommitter
	lingers, futile := e.wal.lingers.Load(), e.wal.lingersFutile.Load()
	if lingers != futile || lingers > logBound(n) {
		t.Fatalf("%d lingers (%d futile) over %d commits, want all futile and at most %d", lingers, futile, n, logBound(n))
	}
	// A linger and the batch's own sync, and one more sync time of slack for
	// the scheduler and the runtime's timer resolution.
	worst, slowest := e.wal.stallHist.Snapshot().Max, e.wal.fsyncHist.Snapshot().Max
	limit := 3 * slowest
	t.Logf("%d futile lingers over %d commits; worst stall %d us, worst sync %d us", futile, n, worst, slowest)
	if worst > limit {
		t.Fatalf("a commit stalled %d us; two syncs and slack are %d us", worst, limit)
	}
}

// lingering sets up a flusher that is in the middle of a long linger: its
// sync estimate is seeded at 100 ms (syncs then drop to 1 ms), one writer
// sits open and one committer has reached LogCommit, whose result arrives on
// the returned channel. The caller ends the linger.
func lingering(t *testing.T) (e *env, idle *txn.Txn, committed chan error) {
	t.Helper()
	e, sf := newSlowEnv(t, 100*time.Millisecond)
	sf.setSync(time.Millisecond)
	idle = e.openWriter(t, 99)
	committer := e.openWriter(t, 0)
	committed = make(chan error, 1)
	go func() { committed <- committer.Commit() }()
	// The committer stops counting as open on entry to LogCommit; a moment
	// later the flusher holds its request and waits for the other writer.
	waitFor(t, "the committer to reach the log", func() bool { return e.mgr.OpenWriters() == 1 })
	time.Sleep(10 * time.Millisecond)
	return e, idle, committed
}

// TestGroupCommitCloseDuringLinger: Close does not wait a linger out, and
// every commit that had reached the log is answered — durable or refused.
func TestGroupCommitCloseDuringLinger(t *testing.T) {
	e, idle, committed := lingering(t)
	defer idle.Abort() //nolint:errcheck // teardown
	const late = 4
	results := make(chan error, late)
	for w := 1; w <= late; w++ {
		go func(w int) { results <- e.tryInsert("t", types.Int(int64(w)), types.Int(0)) }(w)
	}
	start := time.Now()
	if err := e.wal.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 50*time.Millisecond {
		t.Fatalf("Close took %s with a 100 ms linger in progress", took)
	}
	if got := e.wal.lingers.Load(); got == 0 {
		t.Fatal("no linger was in progress")
	}
	durable := 0
	for i := 0; i <= late; i++ {
		var err error
		select {
		case err = <-committed:
			committed = nil
		case err = <-results:
		case <-time.After(5 * time.Second):
			t.Fatal("a LogCommit never returned")
		}
		switch {
		case err == nil:
			durable++
		case !errors.Is(err, ErrClosed):
			t.Fatalf("commit failed with %v, want nil or ErrClosed", err)
		}
	}
	raw, err := os.ReadFile(filepath.Join(e.dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	// One DDL frame, then the acknowledged commits and nothing else.
	if got := len(frameLSNs(t, raw[len(logMagic):])) - 1; got != durable {
		t.Fatalf("%d commits acknowledged, %d commit frames in the log", durable, got)
	}
}

// TestGroupCommitSyncFailOnMergedBatch: an fsync failure fails every commit
// the batch merged, removes all their frames, and leaves the log usable.
func TestGroupCommitSyncFailOnMergedBatch(t *testing.T) {
	e, sibling, committed := lingering(t)
	size, next := e.wal.Size(), e.wal.NextLSN()
	fault.Enable(fault.WalSyncFail, fault.Spec{Limit: 1})
	defer fault.Reset()
	// The sibling's commit completes the batch the flusher is holding open.
	errSibling, errFirst := sibling.Commit(), <-committed
	fault.Reset()
	if errSibling == nil || errFirst == nil {
		t.Fatalf("commits in a batch whose fsync failed returned %v and %v", errFirst, errSibling)
	}
	if got := e.wal.batchHist.Snapshot().Max; got != 2 {
		t.Fatalf("largest batch held %d commits, want the merged 2", got)
	}
	fi, err := os.Stat(filepath.Join(e.dir, LogName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != size || e.wal.Size() != size || e.wal.NextLSN() != next {
		t.Fatalf("after the failed batch: file %d bytes, log %d bytes at lsn %d; want %d bytes at lsn %d",
			fi.Size(), e.wal.Size(), e.wal.NextLSN(), size, next)
	}
	e.insert(t, "t", []types.Value{types.Int(7), types.Int(7)})
	if err := e.wal.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := newEnv(t, e.dir, Options{})
	defer e2.wal.Close()
	if got := dump(t, e2.store, "t"); !sameDump(got, []string{"[7 7]"}) {
		t.Fatalf("recovered %v, want only the commit made after the failure", got)
	}
}

// TestGroupCommitLingerLeavesLogUnlocked: the flusher lingers without the log
// mutex, so a subscriber and a DDL append get through while it waits, and a
// checkpoint queued behind the batch's table locks finishes once it flushes.
func TestGroupCommitLingerLeavesLogUnlocked(t *testing.T) {
	e, sibling, committed := lingering(t)
	defer e.wal.Close()
	start := time.Now()
	sub, err := e.wal.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Cancel()
	other := catalog.MustSchema("other", intCol("v"))
	if err := e.wal.LogCreateTable(other); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 50*time.Millisecond {
		t.Fatalf("Subscribe and a DDL append took %s beside a lingering flusher", took)
	}
	select {
	case err := <-committed:
		t.Fatalf("the linger ended early (commit returned %v)", err)
	default:
	}
	checkpointed := make(chan error, 1)
	go func() {
		ctx := e.mgr.Begin()
		defer ctx.Commit() //nolint:errcheck // read-only
		checkpointed <- e.wal.Checkpoint(ctx, e.cat, e.store)
	}()
	if err := sibling.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, ch := range []chan error{committed, checkpointed} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a commit or the checkpoint made no progress")
		}
	}
	if got := len(frameLSNs(t, sub.History)); got != 1 {
		t.Fatalf("subscriber's history holds %d frames, want the 1 DDL frame", got)
	}
}
