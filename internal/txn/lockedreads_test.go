package txn

import (
	"errors"
	"testing"

	"github.com/stripdb/strip/internal/index"
	"github.com/stripdb/strip/internal/types"
)

// TestLockedReadsTogglesSnapshot: inside LockedReads a snapshot-read
// transaction must read under locks (SnapshotRead refuses), and snapshot
// reads come back once the closure returns. Read-only transactions cannot
// use it: they skip the lock manager entirely.
func TestLockedReadsTogglesSnapshot(t *testing.T) {
	mgr, _ := newEnv(t)
	tx := mgr.Begin()
	tx.EnableSnapshotReads()
	if _, _, ok := tx.SnapshotRead(); !ok {
		t.Fatal("snapshot reads not enabled")
	}
	err := tx.LockedReads(func() error {
		if _, _, ok := tx.SnapshotRead(); ok {
			t.Error("snapshot read served inside LockedReads")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tx.SnapshotRead(); !ok {
		t.Error("snapshot reads not restored after LockedReads")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	ro := mgr.BeginReadOnly()
	if err := ro.LockedReads(func() error { return nil }); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only LockedReads err = %v, want ErrReadOnly", err)
	}
	if err := ro.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestAbortRestoresKeyChurn: an aborted update that changed an indexed
// column must not permanently disable exact snapshot index probes — the
// churn it counted is uncounted when the copy is rolled back.
func TestAbortRestoresKeyChurn(t *testing.T) {
	mgr, tbl := newEnv(t)
	if err := tbl.CreateIndex("symbol", index.Hash); err != nil {
		t.Fatal(err)
	}
	seed := mgr.Begin()
	rec, err := seed.Insert("stocks", row("IBM", 30))
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 5; i++ {
		up := mgr.Begin()
		if _, err := up.Update("stocks", rec, row("HAL", 31)); err != nil {
			t.Fatal(err)
		}
		if tbl.KeyChurn() == 0 {
			t.Fatal("indexed-column change not counted")
		}
		if _, ok := tbl.LookupSnapshot("symbol", types.Str("IBM"), mgr.LastVisible(), 0, nil); ok {
			t.Fatal("exact probe served while key churn is pending")
		}
		if err := up.Abort(); err != nil {
			t.Fatal(err)
		}
		if got := tbl.KeyChurn(); got != 0 {
			t.Fatalf("keyChurn after abort %d = %d, want 0", i, got)
		}
	}
	recs, ok := tbl.LookupSnapshot("symbol", types.Str("IBM"), mgr.LastVisible(), 0, nil)
	if !ok {
		t.Fatal("exact probes still disabled after aborts")
	}
	if len(recs) != 1 || recs[0].Value(1).Float() != 30 {
		t.Fatalf("post-abort probe = %v, want the original row", recs)
	}
}
