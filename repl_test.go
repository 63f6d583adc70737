package strip

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/stripdb/strip/client"
	"github.com/stripdb/strip/internal/obs"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func replicaRows(db *DB, table string) int {
	res, err := db.Exec(fmt.Sprintf(`select * from %s`, table))
	if err != nil {
		return -1
	}
	return len(res.Rows)
}

// End-to-end warm standby: a replica engine streams the primary's WAL over
// the wire, converges, serves reads at its applied LSN, and refuses writes
// with the typed replica error — embedded and over its own listener.
func TestReplReplicaConvergesAndIsReadOnly(t *testing.T) {
	p := serveOpen(t, Config{DataDir: t.TempDir()})
	p.MustExec(`create table kv (k text, v int)`)
	p.MustExec(`insert into kv values ('a', 1)`)
	p.MustExec(`insert into kv values ('b', 2)`)

	r := serveOpen(t, Config{
		DataDir:   t.TempDir(),
		ReplicaOf: p.ServerAddr(),
		Repl:      ReplOptions{Heartbeat: 10 * time.Millisecond},
	})
	if !r.IsReplica() {
		t.Fatal("IsReplica = false on a ReplicaOf engine")
	}
	waitUntil(t, 10*time.Second, "replica convergence", func() bool {
		return replicaRows(r, "kv") == 2
	})

	// Live tail: a commit on the primary shows up without a reconnect.
	p.MustExec(`insert into kv values ('c', 3)`)
	waitUntil(t, 10*time.Second, "live frame", func() bool {
		return replicaRows(r, "kv") == 3
	})

	st, ok := r.ReplStatus()
	if !ok || !st.Connected || st.Reconnects != 0 {
		t.Fatalf("ReplStatus = %+v, ok=%v; want connected with 0 reconnects", st, ok)
	}

	// Embedded writes are refused with the typed sentinel.
	if _, err := r.Exec(`insert into kv values ('x', 9)`); !errors.Is(err, ErrReplica) {
		t.Fatalf("embedded write on replica: %v, want ErrReplica", err)
	}
	if err := r.CreateTable("nope", Column{"a", "INT"}); !errors.Is(err, ErrReplica) {
		t.Fatalf("DDL on replica: %v, want ErrReplica", err)
	}

	// Over the replica's own listener: reads work, writes and interactive
	// transactions get the replica code, and the client maps it back.
	c := serveDial(t, r, client.Options{})
	res, err := c.Query(`select k from kv where v > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("replica read rows = %d, want 2", len(res.Rows))
	}
	if _, err := c.Exec(`insert into kv values ('x', 9)`); !errors.Is(err, ErrReplica) {
		t.Fatalf("wire write on replica: %v, want ErrReplica", err)
	}
	if err := c.Begin(); !errors.Is(err, ErrReplica) {
		t.Fatalf("wire BEGIN on replica: %v, want ErrReplica", err)
	}
	if IsRetryable(err) {
		t.Fatal("ErrReplica must not be retryable: the client should redirect")
	}

	// Primary stays fully writable throughout.
	p.MustExec(`insert into kv values ('d', 4)`)
}

// Lag-bounded reads: a session that asks for MaxLag gets the retryable
// lagging error once the replica falls further behind than its bound.
func TestReplLagBoundedReads(t *testing.T) {
	p := serveOpen(t, Config{DataDir: t.TempDir()})
	p.MustExec(`create table kv (k text, v int)`)
	p.MustExec(`insert into kv values ('a', 1)`)

	r := serveOpen(t, Config{
		DataDir:   t.TempDir(),
		ReplicaOf: p.ServerAddr(),
		Repl:      ReplOptions{Heartbeat: 10 * time.Millisecond},
	})
	waitUntil(t, 10*time.Second, "replica convergence", func() bool {
		return replicaRows(r, "kv") == 1
	})

	c := serveDial(t, r, client.Options{MaxLag: 300 * time.Millisecond})
	// Heartbeats every 10ms keep lag well under the bound while the
	// primary is up.
	if _, err := c.Query(`select * from kv`); err != nil {
		t.Fatalf("bounded read on a fresh replica: %v", err)
	}

	// Kill the primary: lag grows past the bound and the same session's
	// reads become retryable lagging errors.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "lag rejection", func() bool {
		_, err := c.Query(`select * from kv`)
		return errors.Is(err, ErrLagging)
	})
	_, err := c.Query(`select * from kv`)
	if !errors.Is(err, ErrLagging) {
		t.Fatalf("lagging read: %v, want ErrLagging", err)
	}
	if !IsRetryable(err) {
		t.Fatal("ErrLagging must be retryable")
	}

	// A session with no bound still reads the (stale) replica fine.
	c2 := serveDial(t, r, client.Options{})
	if _, err := c2.Query(`select * from kv`); err != nil {
		t.Fatalf("unbounded read on a lagging replica: %v", err)
	}
}

// Crash-consistent resume: a replica restarted over its own data directory
// replays its local log and resumes streaming from its applied LSN —
// without a full resync.
func TestReplReplicaRestartResumes(t *testing.T) {
	p := serveOpen(t, Config{DataDir: t.TempDir()})
	p.MustExec(`create table kv (k text, v int)`)
	p.MustExec(`insert into kv values ('a', 1)`)

	rdir := t.TempDir()
	r, err := Open(Config{DataDir: rdir, ReplicaOf: p.ServerAddr(),
		Repl: ReplOptions{Heartbeat: 10 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "replica convergence", func() bool {
		return replicaRows(r, "kv") == 1
	})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Writes continue while the replica is down.
	p.MustExec(`insert into kv values ('b', 2)`)
	p.MustExec(`insert into kv values ('c', 3)`)

	r2, err := Open(Config{DataDir: rdir, ReplicaOf: p.ServerAddr(),
		Repl: ReplOptions{Heartbeat: 10 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r2.Close() }) //nolint:errcheck
	// Local recovery alone already restores the first row.
	if got := replicaRows(r2, "kv"); got < 1 {
		t.Fatalf("recovered replica rows = %d, want >= 1", got)
	}
	waitUntil(t, 10*time.Second, "replica catch-up", func() bool {
		return replicaRows(r2, "kv") == 3
	})
	if st, _ := r2.ReplStatus(); st.Resyncs != 0 {
		t.Fatalf("restart resumed with %d resync(s), want 0 (incremental tail)", st.Resyncs)
	}
}

// Gap handling: if the primary checkpoints (truncating its log) while the
// replica is down, the resumed replica's LSN predates the shippable tail
// and a full resync — checkpoint shipping — rebuilds it.
func TestReplResyncAfterPrimaryCheckpoint(t *testing.T) {
	p := serveOpen(t, Config{DataDir: t.TempDir()})
	p.MustExec(`create table kv (k text, v int)`)
	p.MustExec(`insert into kv values ('a', 1)`)

	rdir := t.TempDir()
	r, err := Open(Config{DataDir: rdir, ReplicaOf: p.ServerAddr(),
		Repl: ReplOptions{Heartbeat: 10 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "replica convergence", func() bool {
		return replicaRows(r, "kv") == 1
	})
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Advance and checkpoint: the log now starts past the replica's LSN.
	p.MustExec(`insert into kv values ('b', 2)`)
	p.MustExec(`insert into kv values ('c', 3)`)
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	p.MustExec(`insert into kv values ('d', 4)`)

	r2, err := Open(Config{DataDir: rdir, ReplicaOf: p.ServerAddr(),
		Repl: ReplOptions{Heartbeat: 10 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r2.Close() }) //nolint:errcheck
	waitUntil(t, 10*time.Second, "resync convergence", func() bool {
		return replicaRows(r2, "kv") == 4
	})
	st, _ := r2.ReplStatus()
	if st.Resyncs < 1 {
		t.Fatalf("Resyncs = %d, want >= 1 (checkpoint gap forces a full resync)", st.Resyncs)
	}

	// The resynced state is durable: a plain restart recovers it locally.
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	r3, err := Open(Config{DataDir: rdir, ReplicaOf: p.ServerAddr(),
		Repl: ReplOptions{Heartbeat: 10 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r3.Close() }) //nolint:errcheck
	if got := replicaRows(r3, "kv"); got < 4 {
		t.Fatalf("recovered resynced replica rows = %d, want >= 4", got)
	}
}

// Failover: promoting a replica makes it a writable primary at a bumped
// fencing epoch, and the deposed primary — which kept writes the replica
// never saw — is fenced when it tries to rejoin as a follower.
func TestReplPromotionFencesOldPrimary(t *testing.T) {
	pdir, rdir := t.TempDir(), t.TempDir()
	p, err := Open(Config{DataDir: pdir, ListenAddr: "127.0.0.1:0", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	p.MustExec(`create table kv (k text, v int)`)
	p.MustExec(`insert into kv values ('a', 1)`)

	r := serveOpen(t, Config{DataDir: rdir, ReplicaOf: p.ServerAddr(),
		Repl: ReplOptions{Heartbeat: 10 * time.Millisecond}})
	waitUntil(t, 10*time.Second, "replica convergence", func() bool {
		return replicaRows(r, "kv") == 1
	})

	// Partition the replica away, then commit writes only the primary has:
	// the classic split that promotion must fence off.
	st, _ := r.ReplStatus()
	divergeAt := st.AppliedLSN
	if _, err := r.Promote(); err != nil {
		t.Fatal(err)
	}
	p.MustExec(`insert into kv values ('lost-1', 98)`)
	p.MustExec(`insert into kv values ('lost-2', 99)`)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// The promoted replica is writable, reports itself a primary, and
	// serves writes over its own listener.
	if r.IsReplica() {
		t.Fatal("IsReplica = true after Promote")
	}
	if st, _ := r.ReplStatus(); !st.Promoted || st.Epoch == 0 {
		t.Fatalf("post-promotion status = %+v", st)
	}
	if _, err := r.Exec(`insert into kv values ('after-failover', 5)`); err != nil {
		t.Fatalf("write on promoted replica: %v", err)
	}
	c := serveDial(t, r, client.Options{})
	if _, err := c.Exec(`insert into kv values ('wire-after-failover', 6)`); err != nil {
		t.Fatalf("wire write on promoted replica: %v", err)
	}
	// Promote is idempotent.
	if _, err := r.Promote(); err != nil {
		t.Fatal(err)
	}

	// The deposed primary rejoins as a follower of the new primary. Its log
	// extends past the fence point on the old epoch, so it is permanently
	// fenced rather than silently merged.
	old, err := Open(Config{DataDir: pdir, ReplicaOf: r.ServerAddr(),
		Repl: ReplOptions{Heartbeat: 10 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { old.Close() }) //nolint:errcheck
	waitUntil(t, 10*time.Second, "old primary fenced", func() bool {
		st, _ := old.ReplStatus()
		return st.Fenced
	})
	if st, _ := old.ReplStatus(); st.AppliedLSN <= divergeAt {
		t.Fatalf("old primary applied LSN %d should exceed the divergence point %d", st.AppliedLSN, divergeAt)
	}

	// The new primary never absorbed the divergent writes.
	res := r.MustExec(`select * from kv where k = 'lost-1'`)
	if len(res.Rows) != 0 {
		t.Fatal("divergent write leaked onto the new primary")
	}
}

// The standby's fsync rides the heartbeat, not the batch: 1,000 commits
// shipped one batch each cost the replica about one fsync per heartbeat
// interval of the run, not 1,000; once the stream goes idle everything
// applied is durable by the time a second heartbeat arrives; and Promote
// leaves nothing unsynced behind the epoch record.
func TestReplStandbySyncsOnHeartbeat(t *testing.T) {
	const commits, heartbeat = 1000, 10 * time.Millisecond
	p := serveOpen(t, Config{DataDir: t.TempDir(), Repl: ReplOptions{Heartbeat: heartbeat}})
	p.MustExec(`create table kv (k int, v int)`)
	r := serveOpen(t, Config{
		DataDir:   t.TempDir(),
		ReplicaOf: p.ServerAddr(),
		Repl:      ReplOptions{Heartbeat: heartbeat},
	})
	waitUntil(t, 10*time.Second, "replica catch-up", func() bool {
		st, _ := r.ReplStatus()
		return st.Connected && replicaRows(r, "kv") == 0
	})
	before, _ := r.WalInfo()

	start := time.Now()
	for i := 0; i < commits; i++ {
		p.MustExec(fmt.Sprintf(`insert into kv values (%d, %d)`, i, i))
	}
	pw, _ := p.WalInfo()
	last := pw.NextLSN - 1
	waitUntil(t, 10*time.Second, "replica convergence", func() bool {
		st, _ := r.ReplStatus()
		return st.AppliedLSN == last
	})
	streamed := time.Since(start)
	// The stream is idle from here. A heartbeat's sync completes before the
	// next heartbeat is counted, so two counted heartbeats with unsynced
	// frames left would break the bound however late this loop observes it.
	idleAt := time.Now()
	heartbeats := r.Obs().Counter(obs.MReplHeartbeats)
	hb0 := heartbeats.Load()
	waitUntil(t, 10*time.Second, "durable LSN to reach applied LSN on the idle stream", func() bool {
		seen := heartbeats.Load() - hb0
		st, _ := r.ReplStatus()
		if st.DurableLSN != last && seen >= 2 {
			t.Fatalf("%d heartbeats into an idle stream the durable LSN is %d, applied %d", seen, st.DurableLSN, st.AppliedLSN)
		}
		return st.DurableLSN == last
	})
	caughtUp := time.Since(idleAt)

	after, _ := r.WalInfo()
	fsyncs := after.Fsyncs - before.Fsyncs
	bound := int64(streamed/heartbeat) + 5
	t.Logf("%d commits shipped in %v (one per %v): replica fsyncs %d (bound %d, primary %d); durable == applied %v after the stream went idle",
		commits, streamed.Round(time.Millisecond), (streamed / commits).Round(time.Microsecond), fsyncs, bound, pw.Fsyncs, caughtUp.Round(time.Millisecond))
	if fsyncs > bound {
		t.Fatalf("replica fsynced %d times for %d commits over %v; the heartbeat cadence allows %d", fsyncs, commits, streamed, bound)
	}
	if st, _ := r.ReplStatus(); st.Resyncs != 0 || st.Reconnects != 0 {
		t.Fatalf("status %+v; want an undisturbed stream", st)
	}

	// Promote with frames in flight: whatever was applied is durable before
	// the epoch record, and the engine holds every row.
	for i := commits; i < commits+20; i++ {
		p.MustExec(fmt.Sprintf(`insert into kv values (%d, %d)`, i, i))
	}
	waitUntil(t, 10*time.Second, "the tail to arrive", func() bool { return replicaRows(r, "kv") == commits+20 })
	if _, err := r.Promote(); err != nil {
		t.Fatal(err)
	}
	st, _ := r.ReplStatus()
	if !st.Promoted || st.DurableLSN != st.AppliedLSN || st.AppliedLSN != last+20 {
		t.Fatalf("after Promote: %+v, primary lsn %d", st, last+20)
	}
}
