package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/cost"
	"github.com/stripdb/strip/internal/index"
	"github.com/stripdb/strip/internal/lock"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

func TestFrameRoundTrip(t *testing.T) {
	body := []byte("hello, durable world")
	f := appendFrame(nil, recCommit, 42, body)
	kind, lsn, got, next, ok := readFrame(f, 0)
	if !ok {
		t.Fatal("readFrame rejected a well-formed frame")
	}
	if kind != recCommit || lsn != 42 || !bytes.Equal(got, body) || next != len(f) {
		t.Fatalf("round trip mismatch: kind=%d lsn=%d body=%q next=%d", kind, lsn, got, next)
	}

	// Every strict prefix must read as torn, not as a (wrong) record.
	for cut := 0; cut < len(f); cut++ {
		if _, _, _, _, ok := readFrame(f[:cut], 0); ok {
			t.Fatalf("prefix of %d bytes parsed as a complete frame", cut)
		}
	}

	// Flipping any byte must fail the checksum (or the length bound).
	for i := 0; i < len(f); i++ {
		mut := append([]byte(nil), f...)
		mut[i] ^= 0xff
		if _, _, _, next, ok := readFrame(mut, 0); ok && next == len(f) {
			// A length-field mutation may still parse if it points at a
			// coincidentally valid sub-frame; a full-length parse of mutated
			// bytes means the CRC did not protect the payload.
			t.Fatalf("mutated byte %d still parsed as the original frame", i)
		}
	}
}

func TestCommitRecordRoundTrip(t *testing.T) {
	ops := []redoOp{
		{kind: opInsert, table: "t", new: []types.Value{types.Int(1), types.Str("a")}},
		{kind: opDelete, table: "t", old: []types.Value{types.Int(2), types.Str("b")}},
		{kind: opUpdate, table: "u",
			old: []types.Value{types.Float(1.5), types.Null()},
			new: []types.Value{types.Float(2.5), types.Time(12345)}},
	}
	rec, err := decodeCommit(encodeCommit(7, 99, ops))
	if err != nil {
		t.Fatal(err)
	}
	if rec.txnID != 7 || rec.commitAt != 99 || len(rec.ops) != 3 {
		t.Fatalf("header mismatch: %+v", rec)
	}
	for i, op := range rec.ops {
		want := ops[i]
		if op.kind != want.kind || op.table != want.table ||
			!valsEqual(op.old, want.old) || !valsEqual(op.new, want.new) {
			t.Fatalf("op %d mismatch: got %+v want %+v", i, op, want)
		}
	}
}

func valsEqual(a, b []types.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// env bundles a transaction manager wired to a WAL over a temp dir.
type env struct {
	dir   string
	cat   *catalog.Catalog
	store *storage.Store
	mgr   *txn.Manager
	wal   *Log
}

func newEnv(t testing.TB, dir string, opts Options) *env {
	t.Helper()
	cat := catalog.New()
	store := storage.NewStore()
	mgr := txn.NewManager(cat, store, lock.New(), clock.NewReal(), cost.NewMeter(), cost.Zero())
	w, err := Open(dir, opts, cat, store)
	if err != nil {
		t.Fatal(err)
	}
	mgr.SetWAL(w)
	return &env{dir: dir, cat: cat, store: store, mgr: mgr, wal: w}
}

func (e *env) createTable(t testing.TB, name string, cols ...catalog.Column) {
	t.Helper()
	schema := catalog.MustSchema(name, cols...)
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

func (e *env) insert(t testing.TB, table string, rows ...[]types.Value) {
	t.Helper()
	tx := e.mgr.Begin()
	for _, row := range rows {
		if _, err := tx.Insert(table, row); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// dump returns the table's rows as sorted strings (value identity only).
func dump(t *testing.T, store *storage.Store, table string) []string {
	t.Helper()
	tbl, ok := store.Get(table)
	if !ok {
		t.Fatalf("table %q missing", table)
	}
	var out []string
	tbl.Scan(func(r *storage.Record) bool {
		out = append(out, fmt.Sprint(r.Values()))
		return true
	})
	sort.Strings(out)
	return out
}

func sameDump(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func intCol(name string) catalog.Column { return catalog.Column{Name: name, Kind: types.KindInt} }
func strCol(name string) catalog.Column { return catalog.Column{Name: name, Kind: types.KindString} }

func TestRecoverRestoresCommittedState(t *testing.T) {
	dir := t.TempDir()
	e := newEnv(t, dir, Options{})
	e.createTable(t, "acct", strCol("owner"), intCol("balance"))

	e.insert(t, "acct", []types.Value{types.Str("ann"), types.Int(100)})
	e.insert(t, "acct", []types.Value{types.Str("bob"), types.Int(200)})

	// Update and delete exercise value-identity replay.
	tx := e.mgr.Begin()
	tbl, _ := e.store.Get("acct")
	var ann *storage.Record
	tbl.Scan(func(r *storage.Record) bool {
		if r.Value(0).Str() == "ann" {
			ann = r
			return false
		}
		return true
	})
	if _, err := tx.Update("acct", ann, []types.Value{types.Str("ann"), types.Int(150)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want := dump(t, e.store, "acct")
	if err := e.wal.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := newEnv(t, dir, Options{})
	defer e2.wal.Close()
	if got := dump(t, e2.store, "acct"); !sameDump(got, want) {
		t.Fatalf("recovered state mismatch:\n got %v\nwant %v", got, want)
	}
	r := e2.wal.LastRecovery()
	if r.ReplayedTxns != 3 || r.ReplayedDDL != 1 {
		t.Fatalf("unexpected recovery stats: %+v", r)
	}
}

func TestRecoverRebuildsIndexes(t *testing.T) {
	dir := t.TempDir()
	e := newEnv(t, dir, Options{})
	e.createTable(t, "t", strCol("k"), intCol("v"))
	tbl, _ := e.store.Get("t")
	if err := tbl.CreateIndex("k", index.Hash); err != nil {
		t.Fatal(err)
	}
	if err := e.wal.LogCreateIndex("t", "k", index.Hash); err != nil {
		t.Fatal(err)
	}
	e.insert(t, "t", []types.Value{types.Str("x"), types.Int(1)})
	if err := e.wal.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := newEnv(t, dir, Options{})
	defer e2.wal.Close()
	tbl2, _ := e2.store.Get("t")
	if !tbl2.HasIndex("k") {
		t.Fatal("index not rebuilt by recovery")
	}
	recs, ok := tbl2.IndexLookup("k", types.Str("x"))
	if !ok || len(recs) != 1 {
		t.Fatalf("index lookup after recovery: ok=%v n=%d", ok, len(recs))
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	e := newEnv(t, dir, Options{})
	e.createTable(t, "t", intCol("v"))
	e.insert(t, "t", []types.Value{types.Int(1)})
	e.insert(t, "t", []types.Value{types.Int(2)})
	if err := e.wal.Close(); err != nil {
		t.Fatal(err)
	}

	// Chop the last 3 bytes off the log: the final commit becomes torn.
	path := filepath.Join(dir, LogName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := newEnv(t, dir, Options{})
	r := e2.wal.LastRecovery()
	if !r.TornTail {
		t.Fatalf("torn tail not detected: %+v", r)
	}
	if r.ReplayedTxns != 1 {
		t.Fatalf("want 1 surviving txn, got %+v", r)
	}
	if got := dump(t, e2.store, "t"); !sameDump(got, []string{"[1]"}) {
		t.Fatalf("recovered rows: %v", got)
	}
	// The physical file must have been trimmed to the valid prefix so new
	// appends start on a record boundary.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != e2.wal.Size() {
		t.Fatalf("file size %d != tracked size %d", fi.Size(), e2.wal.Size())
	}
	// And the log must still be appendable: commit another row, reopen again.
	e2.insert(t, "t", []types.Value{types.Int(3)})
	if err := e2.wal.Close(); err != nil {
		t.Fatal(err)
	}
	e3 := newEnv(t, dir, Options{})
	defer e3.wal.Close()
	if got := dump(t, e3.store, "t"); !sameDump(got, []string{"[1]", "[3]"}) {
		t.Fatalf("rows after append-past-torn-tail: %v", got)
	}
}

func TestGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	e := newEnv(t, dir, Options{})
	e.createTable(t, "t", intCol("worker"), intCol("seq"))

	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tx := e.mgr.Begin()
				if _, err := tx.Insert("t", []types.Value{types.Int(int64(w)), types.Int(int64(i))}); err != nil {
					errs <- err
					return
				}
				if err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := dump(t, e.store, "t")
	if len(want) != workers*perWorker {
		t.Fatalf("lost rows before crash: %d", len(want))
	}
	if err := e.wal.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := newEnv(t, dir, Options{})
	defer e2.wal.Close()
	if got := dump(t, e2.store, "t"); !sameDump(got, want) {
		t.Fatalf("group-committed state not recovered: %d vs %d rows", len(got), len(want))
	}
	if r := e2.wal.LastRecovery(); r.ReplayedTxns != workers*perWorker {
		t.Fatalf("replayed %d txns, want %d", r.ReplayedTxns, workers*perWorker)
	}
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	e := newEnv(t, dir, Options{})
	e.createTable(t, "t", intCol("v"))
	for i := 0; i < 10; i++ {
		e.insert(t, "t", []types.Value{types.Int(int64(i))})
	}
	before := e.wal.Size()

	ctx := e.mgr.Begin()
	if err := e.wal.Checkpoint(ctx, e.cat, e.store); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Commit(); err != nil {
		t.Fatal(err)
	}
	if after := e.wal.Size(); after >= before || after != int64(len(logMagic)) {
		t.Fatalf("log not truncated: before=%d after=%d", before, after)
	}

	// Post-checkpoint commits land in the fresh log tail.
	e.insert(t, "t", []types.Value{types.Int(100)})
	want := dump(t, e.store, "t")
	if err := e.wal.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := newEnv(t, dir, Options{})
	r := e2.wal.LastRecovery()
	if r.SnapshotTables != 1 || r.SnapshotRows != 10 || r.ReplayedTxns != 1 {
		t.Fatalf("recovery shape: %+v", r)
	}
	if got := dump(t, e2.store, "t"); !sameDump(got, want) {
		t.Fatalf("checkpoint+tail recovery mismatch:\n got %v\nwant %v", got, want)
	}
	// Double recovery must be idempotent: close and reopen again.
	if err := e2.wal.Close(); err != nil {
		t.Fatal(err)
	}
	e3 := newEnv(t, dir, Options{})
	defer e3.wal.Close()
	if got := dump(t, e3.store, "t"); !sameDump(got, want) {
		t.Fatalf("second recovery diverged:\n got %v\nwant %v", got, want)
	}
}

func TestLSNMonotoneAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	e := newEnv(t, dir, Options{})
	e.createTable(t, "t", intCol("v"))
	e.insert(t, "t", []types.Value{types.Int(1)})
	lsn1 := e.wal.NextLSN()
	if err := e.wal.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := newEnv(t, dir, Options{})
	defer e2.wal.Close()
	if lsn2 := e2.wal.NextLSN(); lsn2 != lsn1 {
		t.Fatalf("NextLSN after reopen: got %d want %d", lsn2, lsn1)
	}
}

func TestCloseIdempotent(t *testing.T) {
	e := newEnv(t, t.TempDir(), Options{})
	if err := e.wal.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.wal.Close(); err != nil {
		t.Fatal(err)
	}
	// Commits after close fail cleanly rather than hanging.
	e.createTableNoWAL(t, "t", intCol("v"))
	tx := e.mgr.Begin()
	if _, err := tx.Insert("t", []types.Value{types.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err == nil {
		t.Fatal("commit after wal close should fail")
	}
}

func (e *env) createTableNoWAL(t *testing.T, name string, cols ...catalog.Column) {
	t.Helper()
	schema := catalog.MustSchema(name, cols...)
	if err := e.cat.Define(schema); err != nil {
		t.Fatal(err)
	}
	if _, err := e.store.Create(schema); err != nil {
		t.Fatal(err)
	}
}
