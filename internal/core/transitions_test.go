package core

import (
	"runtime"
	"testing"
	"time"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/query"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

// A transition table is materialised when a rule first names it and not
// otherwise; all four come out of the same log with the same contents an
// eager build would give them.
func TestTransitionsBuildOnlyWhatIsNamed(t *testing.T) {
	db := newTestDB(t)
	tx := db.txns.Begin()
	stocks, err := tx.WriteTable("stocks")
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := stocks.IndexLookup("symbol", types.Str("S1"))
	s2, _ := stocks.IndexLookup("symbol", types.Str("S2"))
	if _, err := tx.Update("stocks", s1[0], []types.Value{types.Str("S1"), types.Float(31)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Insert("stocks", []types.Value{types.Str("S9"), types.Float(9)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Delete("stocks", s2[0]); err != nil {
		t.Fatal(err)
	}
	defer tx.Abort() //nolint:errcheck

	protos, err := newTransProtos(stocks.Schema())
	if err != nil {
		t.Fatal(err)
	}
	tr := &transitions{protos: protos, recs: tx.Log()}
	defer tr.retire()
	lookup := func(name string) *storage.TempTable {
		t.Helper()
		tbl, tt, err := tr.Resolve(tx, name)
		if err != nil || (tbl == nil) == (tt == nil) {
			t.Fatalf("Resolve(%s) = %v, %v, %v", name, tbl, tt, err)
		}
		return tt
	}
	if lookup("stocks") != nil {
		t.Fatal(`Resolve("stocks") claims to be a transition table`)
	}
	nw := lookup(transNew)
	for i, name := range transNames {
		if built := tr.built[i] != nil; built != (name == transNew) {
			t.Errorf("after naming only `new`: %s built = %v", name, built)
		}
	}
	if lookup(transNew) != nw {
		t.Error("second Resolve(new) built a second table")
	}
	// symbol, price, execute_order of every row, per table.
	want := map[string][][]types.Value{
		transNew:      {{types.Str("S1"), types.Float(31), types.Int(1)}},
		transOld:      {{types.Str("S1"), types.Float(30), types.Int(1)}},
		transInserted: {{types.Str("S9"), types.Float(9), types.Int(2)}},
		transDeleted:  {{types.Str("S2"), types.Float(40), types.Int(3)}},
	}
	for name, rows := range want {
		tt := lookup(name)
		if tt.Schema().Name() != name || tt.Schema().ColIndex(ExecuteOrderCol) != 2 {
			t.Errorf("%s: schema %s with execute_order at %d", name, tt.Schema().Name(), tt.Schema().ColIndex(ExecuteOrderCol))
		}
		if tt.Len() != len(rows) {
			t.Fatalf("%s has %d rows, want %d", name, tt.Len(), len(rows))
		}
		for r, row := range rows {
			for c, v := range row {
				if !tt.Value(r, c).Equal(v) {
					t.Errorf("%s[%d][%d] = %v, want %v", name, r, c, tt.Value(r, c), v)
				}
			}
		}
	}
}

// The per-table prototypes are built when the table's first rule is
// created and reused by every commit and every later rule; re-creating the
// table under a new schema replaces them.
func TestTransitionProtosCachedPerTable(t *testing.T) {
	db := newTestDB(t)
	var fired int
	db.register("count", func(ctx *ActionContext) error {
		tt, _ := ctx.Bound("changed")
		fired += tt.Len()
		return nil
	})
	db.mustCreate(&Rule{
		Name: "r", Table: "stocks", Events: []EventSpec{{Kind: Updated}},
		Condition: []*query.Select{{Star: true, From: []string{"new"}, Bind: "changed"}},
		Action:    "count",
	})
	protosOf := func(table string) *transProtos { return (*db.engine.programs.Load())[table].protos }
	first := protosOf("stocks")
	if first == nil {
		t.Fatal("creating the rule did not build the table's prototypes")
	}
	db.setPrice("S1", 31)
	db.setPrice("S1", 32)
	db.setPrice("S2", 41)
	if protosOf("stocks") != first {
		t.Error("a commit rebuilt the prototypes")
	}
	for _, proto := range first.tables {
		if proto.Len() != 0 {
			t.Errorf("prototype %s holds %d rows; commits must clone it, not fill it", proto.Schema().Name(), proto.Len())
		}
	}
	db.drain()
	if fired != 3 {
		t.Fatalf("action saw %d changed rows, want 3", fired)
	}

	// Same name, wider schema: the cached prototypes no longer describe it.
	if err := db.txns.Catalog.Drop("stocks"); err != nil {
		t.Fatal(err)
	}
	if err := db.txns.Store.Drop("stocks"); err != nil {
		t.Fatal(err)
	}
	db.mkTable(catalog.MustSchema("stocks",
		catalog.Column{Name: "symbol", Kind: types.KindString},
		catalog.Column{Name: "price", Kind: types.KindFloat},
		catalog.Column{Name: "volume", Kind: types.KindInt}), "symbol")
	db.seed("stocks", [][]types.Value{{types.Str("S1"), types.Float(30), types.Int(7)}})
	var cols int
	db.register("width", func(ctx *ActionContext) error {
		tt, _ := ctx.Bound("wide")
		cols = tt.Schema().NumCols()
		return nil
	})
	db.mustCreate(&Rule{
		Name: "r2", Table: "stocks", Events: []EventSpec{{Kind: Updated}},
		Condition: []*query.Select{{Star: true, From: []string{"old"}, Bind: "wide"}},
		Action:    "width",
	})
	if err := db.engine.DropRule("r"); err != nil {
		t.Fatal(err)
	}
	tx := db.txns.Begin()
	tbl, err := tx.WriteTable("stocks")
	if err != nil {
		t.Fatal(err)
	}
	var rec *storage.Record
	tbl.Scan(func(r *storage.Record) bool { rec = r; return false })
	if _, err := tx.Update("stocks", rec, []types.Value{types.Str("S1"), types.Float(31), types.Int(8)}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	db.drain()
	if second := protosOf("stocks"); second == first || second.base.NumCols() != 3 {
		t.Error("prototypes were not rebuilt for the re-created table")
	}
	if cols != 4 {
		t.Errorf("`old` over the re-created table has %d columns, want 4 (3 + execute_order)", cols)
	}
}

// A function's bound-table signature is fixed, and checked, when its rules
// are created; a firing takes no engine lock at all: a commit that fires
// while another goroutine holds the lock does not wait.
func TestBindSignatureCheckTakesNoExclusiveLock(t *testing.T) {
	db := newTestDB(t)
	db.register("noop", func(*ActionContext) error { return nil })
	db.mustCreate(&Rule{
		Name: "r", Table: "stocks", Events: []EventSpec{{Kind: Updated}},
		Condition: []*query.Select{{Star: true, From: []string{"new"}, Bind: "changed"}},
		Action:    "noop",
	})
	if db.engine.bindSig["noop"] == nil {
		t.Fatal("creating the rule did not record the signature")
	}
	db.setPrice("S1", 31)
	db.engine.mu.Lock() // any use of the lock in the commit hook would wait for this
	done := make(chan struct{})
	go func() {
		defer close(done)
		tx := db.txns.Begin()
		tbl, _ := tx.WriteTable("stocks")
		recs, _ := tbl.IndexLookup("symbol", types.Str("S2"))
		tx.Update("stocks", recs[0], []types.Value{types.Str("S2"), types.Float(41)}) //nolint:errcheck
		tx.Commit()                                                                   //nolint:errcheck
	}()
	select {
	case <-done:
		db.engine.mu.Unlock()
	case <-time.After(5 * time.Second):
		db.engine.mu.Unlock()
		t.Fatal("commit waited for the engine lock")
	}
	if st := db.engine.Stats("noop"); st.Fired != 2 {
		t.Fatalf("fired = %d, want 2", st.Fired)
	}
}

// A queued task waits on its triggering transactions' completion signals
// but does not keep the transactions alive: with a unique rule batching for
// a second, a trigger that has committed is garbage while the task is still
// in the delay queue.
func TestQueuedTaskDoesNotRetainTriggers(t *testing.T) {
	db := newTestDB(t)
	db.register("noop", func(*ActionContext) error { return nil })
	db.mustCreate(&Rule{
		Name: "r", Table: "stocks", Events: []EventSpec{{Kind: Updated}},
		Condition: []*query.Select{{Star: true, From: []string{"new"}, Bind: "changed"}},
		Action:    "noop", Unique: true, Delay: 1_000_000,
	})
	collected := make(chan struct{}, 2)
	commit := func(symbol string, price float64) {
		tx := db.txns.Begin()
		runtime.SetFinalizer(tx, func(*txn.Txn) { collected <- struct{}{} })
		tbl, _ := tx.WriteTable("stocks")
		recs, _ := tbl.IndexLookup("symbol", types.Str(symbol))
		if _, err := tx.Update("stocks", recs[0], []types.Value{types.Str(symbol), types.Float(price)}); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	commit("S1", 31) // creates the task
	commit("S2", 41) // merges into it
	if d, _ := db.sched.Pending(); d != 1 {
		t.Fatalf("%d delayed tasks, want the one unique task", d)
	}
	for got := 0; got < 2; {
		runtime.GC()
		select {
		case <-collected:
			got++
		case <-time.After(2 * time.Second):
			t.Fatalf("%d of 2 committed triggers were collected while their task was queued", got)
		}
	}
	db.clk.AdvanceTo(1_000_000)
	db.drain()
	if st := db.engine.Stats("noop"); st.TasksRun != 1 || st.TasksMerged != 1 || st.TaskErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}
