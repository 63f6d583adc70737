package txn

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/stripdb/strip/internal/index"
	"github.com/stripdb/strip/internal/obs"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/types"
)

// gcModel drives one table (one row per key) with a random workload and
// keeps what every pinned read-only snapshot must read. The dirty-head GC is
// checked against it: a sweep may only drop versions no pinned snapshot
// needs, must account for every version it keeps, and must keep nothing
// once no snapshot is out.
type gcModel struct {
	t     *testing.T
	mgr   *Manager
	tbl   *storage.Table
	rng   *rand.Rand
	cur   map[string]float64         // committed state
	heads map[string]*storage.Record // live head per committed key
	pins  []gcPin
	next  int // next fresh key
}

type gcPin struct {
	tx   *Txn
	want map[string]float64
}

func newGCModel(t *testing.T, seed int64) *gcModel {
	mgr, tbl := newEnv(t)
	if err := tbl.CreateIndex("symbol", index.Hash); err != nil {
		t.Fatal(err)
	}
	return &gcModel{t: t, mgr: mgr, tbl: tbl, rng: rand.New(rand.NewSource(seed)),
		cur: map[string]float64{}, heads: map[string]*storage.Record{}}
}

func copyState[V any](m map[string]V) map[string]V {
	out := make(map[string]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// op is one write against the working state of an open transaction (or, in
// replica mode, of one applied batch).
type gcOp struct {
	kind Op
	key  string
	val  float64
}

// randomOps picks 1–4 writes that are valid in sequence against state.
func (m *gcModel) randomOps(state map[string]float64) []gcOp {
	state = copyState(state)
	var ops []gcOp
	for n := 1 + m.rng.Intn(4); n > 0; n-- {
		var keys []string
		for k := range state {
			keys = append(keys, k)
		}
		sort.Strings(keys) // a seed replays the same trace
		r := m.rng.Intn(10)
		switch {
		case len(keys) == 0 || (r < 2 && len(keys) < 24):
			m.next++
			k := fmt.Sprintf("K%03d", m.next)
			state[k] = float64(m.next)
			ops = append(ops, gcOp{OpInsert, k, state[k]})
		case r < 9:
			// Few hot keys, so chains grow under pinned snapshots and one
			// transaction often rewrites its own uncommitted version.
			k := keys[m.rng.Intn(1+len(keys)/4)]
			state[k] += 1
			ops = append(ops, gcOp{OpUpdate, k, state[k]})
		default:
			k := keys[m.rng.Intn(len(keys))]
			delete(state, k)
			ops = append(ops, gcOp{OpDelete, k, 0})
		}
	}
	return ops
}

// runTxn applies ops in a transaction and commits or aborts it.
func (m *gcModel) runTxn(ops []gcOp, commit bool) {
	m.t.Helper()
	tx := m.mgr.Begin()
	state, heads := copyState(m.cur), copyState(m.heads)
	for _, o := range ops {
		var err error
		switch o.kind {
		case OpInsert:
			heads[o.key], err = tx.Insert("stocks", row(o.key, o.val))
			state[o.key] = o.val
		case OpUpdate:
			heads[o.key], err = tx.Update("stocks", heads[o.key], row(o.key, o.val))
			state[o.key] = o.val
		case OpDelete:
			err = tx.Delete("stocks", heads[o.key])
			delete(state, o.key)
			delete(heads, o.key)
		}
		if err != nil {
			m.t.Fatalf("%s %s: %v", o.kind, o.key, err)
		}
	}
	if !commit {
		if err := tx.Abort(); err != nil {
			m.t.Fatal(err)
		}
		return // rollback relinks the original records: cur and heads stand
	}
	if err := tx.Commit(); err != nil {
		m.t.Fatal(err)
	}
	m.cur, m.heads = state, heads
}

// applyBatch applies ops the way a replica replays a shipped commit: straight
// to storage, each version stamped with the batch's LSN, then published.
func (m *gcModel) applyBatch(ops []gcOp) {
	m.t.Helper()
	lsn := m.mgr.LastVisible() + 1
	for _, o := range ops {
		switch o.kind {
		case OpInsert:
			rec, err := m.tbl.InsertReserved(m.tbl.ReserveID(), row(o.key, o.val))
			if err != nil {
				m.t.Fatal(err)
			}
			rec.StampCreate(lsn)
			m.heads[o.key], m.cur[o.key] = rec, o.val
		case OpUpdate:
			old := m.heads[o.key]
			rec, err := m.tbl.Update(old, row(o.key, o.val))
			if err != nil {
				m.t.Fatal(err)
			}
			rec.StampCreate(lsn)
			old.StampDelete(lsn)
			m.heads[o.key], m.cur[o.key] = rec, o.val
		case OpDelete:
			old := m.heads[o.key]
			if err := m.tbl.Delete(old); err != nil {
				m.t.Fatal(err)
			}
			old.StampDelete(lsn)
			delete(m.heads, o.key)
			delete(m.cur, o.key)
		}
	}
	m.mgr.SeedLSN(lsn)
}

func (m *gcModel) pin() {
	tx := m.mgr.BeginReadOnly()
	tx.SnapshotRead() // registers the snapshot with the GC horizon now
	m.pins = append(m.pins, gcPin{tx: tx, want: copyState(m.cur)})
}

func (m *gcModel) unpin(i int) {
	if err := m.pins[i].tx.Commit(); err != nil {
		m.t.Fatal(err)
	}
	m.pins = append(m.pins[:i], m.pins[i+1:]...)
}

// checkPins reads every pinned snapshot by scan and by probe and compares
// with what it saw when it was taken.
func (m *gcModel) checkPins(when string) {
	m.t.Helper()
	for _, p := range m.pins {
		snap, me, _ := p.tx.SnapshotRead()
		got := map[string][]float64{}
		m.tbl.ScanSnapshot(snap, me, func(r *storage.Record) bool {
			k := r.Value(0).Str()
			got[k] = append(got[k], r.Value(1).Float())
			return true
		})
		if len(got) != len(p.want) {
			m.t.Fatalf("%s: snapshot %d scans %d keys, want %d", when, snap, len(got), len(p.want))
		}
		for k, want := range p.want {
			if vs := got[k]; len(vs) != 1 || vs[0] != want {
				m.t.Fatalf("%s: snapshot %d scans %s = %v, want [%v]", when, snap, k, vs, want)
			}
		}
		// Probe every key the snapshot has and every key it must not see.
		for k := range m.allKeys(p.want) {
			recs, ok := m.tbl.LookupSnapshot("symbol", types.Str(k), snap, me, nil)
			want, present := p.want[k]
			switch {
			case !ok:
				m.t.Fatalf("%s: snapshot %d probe of %s refused", when, snap, k)
			case !present && len(recs) != 0:
				m.t.Fatalf("%s: snapshot %d probes %d versions of %s, want none", when, snap, len(recs), k)
			case present && (len(recs) != 1 || recs[0].Value(1).Float() != want):
				m.t.Fatalf("%s: snapshot %d probes %d versions of %s, want one = %v", when, snap, len(recs), k, want)
			}
		}
	}
}

func (m *gcModel) allKeys(extra map[string]float64) map[string]bool {
	keys := map[string]bool{}
	for k := range extra {
		keys[k] = true
	}
	for k := range m.cur {
		keys[k] = true
	}
	for _, p := range m.pins {
		for k := range p.want {
			keys[k] = true
		}
	}
	return keys
}

// gc runs a sweep and checks its accounting: the gauge it publishes equals
// a full walk of the table, and the snapshots still read what they read.
func (m *gcModel) gc(when string) {
	m.t.Helper()
	m.mgr.RunVersionGC()
	gauge := m.mgr.Obs.Gauge(obs.MMvccVersionsRetained).Load()
	if walked := m.tbl.VersionStats(); walked != gauge {
		m.t.Fatalf("%s: sweep accounts for %d retained versions, a full walk finds %d", when, gauge, walked)
	}
	m.checkPins(when + ", after GC")
}

// finish releases every snapshot; one more sweep must then leave nothing.
func (m *gcModel) finish() {
	m.t.Helper()
	for len(m.pins) > 0 {
		m.unpin(0)
	}
	m.gc("quiescent")
	if walked := m.tbl.VersionStats(); walked != 0 {
		m.t.Fatalf("no snapshot out, still %d versions retained", walked)
	}
	if got := m.tbl.Len(); got != len(m.cur) {
		m.t.Fatalf("table has %d live rows, model %d", got, len(m.cur))
	}
}

// scanUnique is what the background readers check: whatever LSN they land
// on, a snapshot scan returns each key at most once.
func (m *gcModel) scanUnique() error {
	tx := m.mgr.BeginReadOnly()
	defer tx.Commit() //nolint:errcheck // read-only
	snap, me, _ := tx.SnapshotRead()
	seen := map[string]bool{}
	var dup string
	m.tbl.ScanSnapshot(snap, me, func(r *storage.Record) bool {
		k := r.Value(0).Str()
		if seen[k] {
			dup = k
			return false
		}
		seen[k] = true
		return true
	})
	if dup != "" {
		return fmt.Errorf("snapshot %d scans %s twice", snap, dup)
	}
	return nil
}

// TestVersionGCModel: random inserts, updates, deletes and aborts with
// pinned read-only snapshots, a sweep every few transactions, and two
// readers scanning concurrently (run it under -race).
func TestVersionGCModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		m := newGCModel(t, seed)
		var stop atomic.Bool
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					if err := m.scanUnique(); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		for i := 0; i < 1500; i++ {
			m.runTxn(m.randomOps(m.cur), m.rng.Intn(10) < 7)
			switch r := m.rng.Intn(20); {
			case r < 3 && len(m.pins) < 6:
				m.pin()
			case r < 6 && len(m.pins) > 0:
				m.unpin(m.rng.Intn(len(m.pins)))
			}
			when := fmt.Sprintf("seed %d txn %d", seed, i)
			m.checkPins(when)
			if i%7 == 6 {
				m.gc(when)
			}
		}
		stop.Store(true)
		wg.Wait()
		m.finish()
	}
}

// TestVersionGCModelReplicaApply is the same check on the path a standby
// takes: versions written straight to storage and stamped with the shipped
// LSN (InsertReserved + StampCreate, Update + both stamps), no transactions.
func TestVersionGCModelReplicaApply(t *testing.T) {
	m := newGCModel(t, 11)
	for i := 0; i < 1500; i++ {
		m.applyBatch(m.randomOps(m.cur))
		switch r := m.rng.Intn(20); {
		case r < 3 && len(m.pins) < 6:
			m.pin()
		case r < 6 && len(m.pins) > 0:
			m.unpin(m.rng.Intn(len(m.pins)))
		}
		when := fmt.Sprintf("batch %d", i)
		m.checkPins(when)
		if i%7 == 6 {
			m.gc(when)
		}
	}
	m.finish()
}
