package storage

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"github.com/stripdb/strip/internal/index"
	"github.com/stripdb/strip/internal/types"
)

// TestRecordSize pins the record to the 96-byte allocation size class: a
// scan's per-row cost is the record's cache misses, so a field added here
// is paid on every row of every walk.
func TestRecordSize(t *testing.T) {
	var r Record
	if got := unsafe.Sizeof(r); got > 96 {
		t.Fatalf("unsafe.Sizeof(Record{}) = %d bytes, want <= 96", got)
	}
}

// rowModel is the reference for a table's row array: the live records as an
// ordered list, and every version ever committed with the LSNs bounding its
// life, so a held snapshot's visible set follows without consulting the
// table's own chains.
type rowModel struct {
	live []*Record
	vers map[string][]modelVersion // by symbol, oldest first
}

type modelVersion struct {
	price       float64
	create, del uint64 // del 0: not superseded or deleted yet
}

func (m *rowModel) begin(sym string, price float64, lsn uint64) {
	m.vers[sym] = append(m.vers[sym], modelVersion{price: price, create: lsn})
}

func (m *rowModel) moveToTail(r *Record) {
	m.remove(r)
	m.live = append(m.live, r)
}

func (m *rowModel) remove(r *Record) {
	i := slices.Index(m.live, r)
	m.live = slices.Delete(m.live, i, i+1)
}

// ended stamps the end of r's row's current version.
func (m *rowModel) ended(r *Record, lsn uint64) {
	h := m.vers[r.Value(0).Str()]
	if v := &h[len(h)-1]; v.del == 0 && v.price == r.Value(1).Float() {
		v.del = lsn
		return
	}
	panic("model: no open version for " + fmt.Sprint(r.Values()))
}

// rowVersion names one version of a row: symbols are never reused and
// every version gets a price of its own.
type rowVersion struct {
	sym   string
	price float64
}

func versionOf(r *Record) rowVersion { return rowVersion{r.Value(0).Str(), r.Value(1).Float()} }

// visible splits what a snapshot at snap sees into the rows whose head is
// live, in scan order, and the deleted rows it still sees, as a set.
func (m *rowModel) visible(snap uint64) (ordered []rowVersion, deleted map[rowVersion]int) {
	at := func(sym string) (rowVersion, bool) {
		for _, v := range m.vers[sym] {
			if v.create <= snap && (v.del == 0 || v.del > snap) {
				return rowVersion{sym, v.price}, true
			}
		}
		return rowVersion{}, false
	}
	liveSym := map[string]bool{}
	for _, r := range m.live {
		sym := r.Value(0).Str()
		liveSym[sym] = true
		if v, ok := at(sym); ok {
			ordered = append(ordered, v)
		}
	}
	deleted = map[rowVersion]int{}
	for sym := range m.vers {
		if v, ok := at(sym); ok && !liveSym[sym] {
			deleted[v]++
		}
	}
	return ordered, deleted
}

// forget drops the rows deleted at or below horizon, which no snapshot the
// model still holds can see. (A row's newest version has ended only if the
// row is deleted: an update begins the next one.)
func (m *rowModel) forget(horizon uint64) {
	for sym, h := range m.vers {
		if d := h[len(h)-1].del; d != 0 && d <= horizon {
			delete(m.vers, sym)
		}
	}
}

// TestRowArrayModel runs seeded inserts, updates, deletes, rolled-back
// updates (UndoUpdate), rolled-back deletes (Relink) and version GC against
// the reference model. After every step the live walks (AppendLive, Scan)
// must list the model's records in its order, and AppendVisible at each
// held snapshot must return the model's visible versions: the live rows'
// in scan order, then the deleted rows' in any order. Enough rows are
// unlinked for the array to compact many times.
func TestRowArrayModel(t *testing.T) {
	const steps = 4000
	rng := rand.New(rand.NewSource(40))
	tbl := stocksTable(t)
	if err := tbl.CreateIndex("symbol", index.Hash); err != nil {
		t.Fatal(err)
	}
	m := rowModel{vers: map[string][]modelVersion{}}
	lsn := uint64(BootstrapLSN)
	held := []uint64{lsn}
	nextSym, nextPrice := 0, 0.0
	newVals := func(sym string) []types.Value {
		nextPrice++
		return []types.Value{types.Str(sym), types.Float(nextPrice)}
	}
	pick := func() *Record { return m.live[rng.Intn(len(m.live))] }
	compactions, lastLen := 0, 0
	var buf []*Record
	for step := 0; step < steps; step++ {
		op := rng.Intn(100)
		if len(m.live) < 8 {
			op = 0
		}
		switch {
		case op < 16: // insert
			lsn++
			sym := fmt.Sprintf("s%04d", nextSym)
			nextSym++
			r := commitInsert(t, tbl, lsn, newVals(sym)...)
			m.live = append(m.live, r)
			m.begin(sym, nextPrice, lsn)
		case op < 50: // committed update: the row moves to the tail
			lsn++
			old := pick()
			sym := old.Value(0).Str()
			nr := commitUpdate(t, tbl, old, lsn, newVals(sym)...)
			m.ended(old, lsn)
			m.remove(old)
			m.live = append(m.live, nr)
			m.begin(sym, nextPrice, lsn)
		case op < 64: // committed delete
			lsn++
			r := pick()
			if err := tbl.Delete(r); err != nil {
				t.Fatal(err)
			}
			r.StampDelete(lsn)
			m.ended(r, lsn)
			m.remove(r)
		case op < 76: // rolled-back update: the original is relinked at the tail
			old := pick()
			nr, err := tbl.Update(old, newVals(old.Value(0).Str()))
			if err != nil {
				t.Fatal(err)
			}
			if err := tbl.UndoUpdate(old, nr); err != nil {
				t.Fatal(err)
			}
			m.moveToTail(old)
		case op < 88: // rolled-back delete
			r := pick()
			if err := tbl.Delete(r); err != nil {
				t.Fatal(err)
			}
			if err := tbl.Relink(r); err != nil {
				t.Fatal(err)
			}
			m.moveToTail(r)
		case op < 94: // take a snapshot, dropping the oldest past three
			held = append(held, lsn)
			if len(held) > 3 {
				held = held[1:]
			}
		default: // GC below the oldest held snapshot
			horizon := slices.Min(held)
			tbl.ReleaseVersions(horizon)
			m.forget(horizon)
		}

		if n := len(tbl.rows); n < lastLen {
			compactions++
		}
		lastLen = len(tbl.rows)
		if got, want := len(tbl.rows)-tbl.holes, tbl.Len(); got != want || tbl.holes > len(tbl.rows)/2 {
			t.Fatalf("step %d: %d slots, %d holes, %d live rows", step, len(tbl.rows), tbl.holes, want)
		}
		for i, r := range tbl.rows {
			if r != nil && r.slot != i {
				t.Fatalf("step %d: record in slot %d says slot %d", step, i, r.slot)
			}
		}
		buf = tbl.AppendLive(buf[:0])
		if !slices.Equal(buf, m.live) {
			t.Fatalf("step %d: AppendLive %d records, model %d (or out of order)", step, len(buf), len(m.live))
		}
		i := 0
		tbl.Scan(func(r *Record) bool {
			if i >= len(m.live) || r != m.live[i] {
				t.Fatalf("step %d: Scan's record %d is not the model's", step, i)
			}
			i++
			return true
		})
		if i != len(m.live) {
			t.Fatalf("step %d: Scan visited %d records, model has %d", step, i, len(m.live))
		}
		for _, snap := range held {
			ordered, deleted := m.visible(snap)
			buf = tbl.AppendVisible(buf[:0], snap, 0)
			if len(buf) < len(ordered) {
				t.Fatalf("step %d snap %d: AppendVisible %d records, model %d live-ordered", step, snap, len(buf), len(ordered))
			}
			for j, want := range ordered {
				if got := versionOf(buf[j]); got != want {
					t.Fatalf("step %d snap %d: visible row %d is %v, model %v", step, snap, j, got, want)
				}
			}
			got := map[rowVersion]int{}
			for _, r := range buf[len(ordered):] {
				got[versionOf(r)]++
			}
			if !maps.Equal(got, deleted) {
				t.Fatalf("step %d snap %d: deleted rows visible %v, model %v", step, snap, got, deleted)
			}
		}
	}
	if compactions < 10 {
		t.Fatalf("the array compacted %d times in %d steps; the model needs more churn", compactions, steps)
	}
	t.Logf("%d steps, %d compactions, %d live rows", steps, compactions, len(m.live))
}

// TestRowArrayUnderReaders runs snapshot scans and index probes against a
// writer whose updates and deletes compact the array over and over (run it
// under -race): every snapshot scan sees each row exactly once at a version
// no newer than its snapshot, every snapshot probe finds its row, and a live
// probe finds no other.
func TestRowArrayUnderReaders(t *testing.T) {
	tbl := stocksTable(t)
	if err := tbl.CreateIndex("symbol", index.Hash); err != nil {
		t.Fatal(err)
	}
	const rows, rounds = 16, 400
	recs := make([]*Record, rows)
	for i := range recs {
		recs[i] = commitInsert(t, tbl, 2, types.Str(fmt.Sprintf("s%02d", i)), types.Float(2))
	}
	var latest atomic.Uint64
	latest.Store(2)
	var done atomic.Bool
	var wg sync.WaitGroup
	reader := func(probe bool) {
		defer wg.Done()
		var buf []*Record
		for i := 0; !done.Load(); i++ {
			snap := latest.Load()
			if probe {
				sym := types.Str(fmt.Sprintf("s%02d", i%rows))
				got, ok := tbl.LookupSnapshot("symbol", sym, snap, 0, buf[:0])
				if !ok || len(got) != 1 || got[0].CreateLSN() > snap {
					t.Errorf("snapshot %d probe of %v: %d records (ok %v)", snap, sym, len(got), ok)
					return
				}
				// A live probe misses the row only while the writer holds
				// it deleted, between its Delete and its Relink.
				if got, _ = tbl.AppendIndexLookup(buf[:0], "symbol", sym); len(got) > 1 || len(got) == 1 && !got[0].Value(0).Equal(sym) {
					t.Errorf("live probe of %v: %d records", sym, len(got))
					return
				}
				buf = got
				continue
			}
			buf = tbl.AppendVisible(buf[:0], snap, 0)
			seen := map[string]bool{}
			for _, r := range buf {
				sym := r.Value(0).Str()
				if c := r.CreateLSN(); c == 0 || c > snap || seen[sym] {
					t.Errorf("snapshot %d saw %v created at %d (seen before: %v)", snap, r.Values(), c, seen[sym])
					return
				}
				seen[sym] = true
			}
			if len(seen) != rows {
				t.Errorf("snapshot %d saw %d rows, want %d", snap, len(seen), rows)
				return
			}
		}
	}
	wg.Add(2)
	go reader(false)
	go reader(true)
	// The writer alternates committed updates with a rolled-back delete and
	// never collects versions, so every snapshot a reader took stays whole.
	for lsn := uint64(3); lsn < 3+rounds; lsn++ {
		for i := range recs {
			recs[i] = commitUpdate(t, tbl, recs[i], lsn, recs[i].Value(0), types.Float(float64(lsn)))
		}
		r := recs[int(lsn)%rows]
		if err := tbl.Delete(r); err != nil {
			t.Fatal(err)
		}
		if err := tbl.Relink(r); err != nil {
			t.Fatal(err)
		}
		latest.Store(lsn)
	}
	done.Store(true)
	wg.Wait()
}
