// Go-level benchmarks of the engine's primitives.
//
// Table 1 benches measure this implementation's real Go-level costs of the
// same primitives the paper times (begin/commit transaction, cursor-style
// one-tuple update, lock acquisition); EXPERIMENTS.md quotes them. Ablation
// benches cover design choices DESIGN.md calls out (the §6.1 pointer-based
// temporary tables, rule processing cost, unique-merge cost), and the firing
// benches walk a rule firing layer by layer down to the view delta action.
// The paper's figures are not here: `cmd/stripbench` prints them from the
// virtual-clock replay, and internal/ptabench's tests assert their shapes.
package strip_test

import (
	"fmt"
	"testing"

	strip "github.com/stripdb/strip"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/types"
)

// --- Table 1: measured costs of STRIP primitives --------------------------

func benchDB(b *testing.B) *strip.DB {
	b.Helper()
	db := strip.MustOpen(strip.Config{Virtual: true, Cost: &strip.CostModel{}}) // zero cost model: measure real time
	db.MustExec(`create table stocks (symbol text, price float)`)
	db.MustExec(`create index on stocks (symbol)`)
	for i := 0; i < 1000; i++ {
		db.MustExec(fmt.Sprintf(`insert into stocks values ('S%04d', %d)`, i, i))
	}
	return db
}

// BenchmarkTable1_BeginCommit measures the empty transaction shell.
func BenchmarkTable1_BeginCommit(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_SimpleUpdate is the paper's headline number: one-tuple
// cursor update through lock, index lookup, copy-on-update, and commit
// (paper: 172 µs on the HP-735).
func BenchmarkTable1_SimpleUpdate(b *testing.B) {
	db := benchDB(b)
	sym := strip.Str("S0001")
	row := []strip.Value{sym, strip.Float(1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		tbl, err := tx.WriteTable("stocks")
		if err != nil {
			b.Fatal(err)
		}
		recs, _ := tbl.IndexLookup("symbol", sym)
		row[1] = strip.Float(float64(i))
		if _, err := tx.Update("stocks", recs[0], row); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_Insert measures a one-tuple insert transaction.
func BenchmarkTable1_Insert(b *testing.B) {
	db := benchDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		if _, err := tx.Insert("stocks", []strip.Value{strip.Str(fmt.Sprintf("N%08d", i)), strip.Float(1)}); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_IndexLookup measures a hash-index point read.
func BenchmarkTable1_IndexLookup(b *testing.B) {
	db := benchDB(b)
	tbl, _ := db.Txns().Store.Get("stocks")
	sym := strip.Str("S0500")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs, _ := tbl.IndexLookup("symbol", sym); len(recs) != 1 {
			b.Fatal("lookup failed")
		}
	}
}

// --- Ablations -------------------------------------------------------------

// BenchmarkBoundTablePointerScheme vs ...ValueCopy: the §6.1 design choice.
// The pointer scheme stores one pointer per contributing record; the value
// alternative copies every column. -benchmem shows the allocation gap.
func BenchmarkBoundTablePointerScheme(b *testing.B) {
	recs, schema, srcMap := boundTableFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt, err := storage.NewTempTable(schema, srcMap, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			if err := tt.AppendRow([]*storage.Record{r}, nil); err != nil {
				b.Fatal(err)
			}
		}
		tt.Retire()
	}
}

func BenchmarkBoundTableValueCopy(b *testing.B) {
	recs, schema, _ := boundTableFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt := storage.NewValueTempTable(schema)
		for _, r := range recs {
			if err := tt.AppendValues(r.Values()...); err != nil {
				b.Fatal(err)
			}
		}
		tt.Retire()
	}
}

func boundTableFixture(b *testing.B) ([]*storage.Record, *catalog.Schema, []storage.ColSource) {
	b.Helper()
	schema := catalog.MustSchema("rows",
		catalog.Column{Name: "symbol", Kind: types.KindString},
		catalog.Column{Name: "a", Kind: types.KindFloat},
		catalog.Column{Name: "b", Kind: types.KindFloat},
		catalog.Column{Name: "c", Kind: types.KindFloat},
		catalog.Column{Name: "d", Kind: types.KindFloat},
	)
	tbl := storage.NewTable(schema)
	recs := make([]*storage.Record, 256)
	for i := range recs {
		r, err := tbl.Insert([]types.Value{
			types.Str(fmt.Sprintf("S%03d", i)), types.Float(1), types.Float(2), types.Float(3), types.Float(4)})
		if err != nil {
			b.Fatal(err)
		}
		recs[i] = r
	}
	srcMap := make([]storage.ColSource, schema.NumCols())
	for i := range srcMap {
		srcMap[i] = storage.FromRecord(0, i)
	}
	return recs, schema.Rename("bound"), srcMap
}

// BenchmarkRuleProcessingOverhead measures commit cost with a triggered
// rule (condition query + bind + enqueue) versus BenchmarkTable1_SimpleUpdate.
func BenchmarkRuleProcessingOverhead(b *testing.B) {
	db := benchDB(b)
	if err := db.RegisterFunc("noop", func(ctx *strip.ActionContext) error { return nil }); err != nil {
		b.Fatal(err)
	}
	db.MustExec(`
	  create rule r on stocks when updated price
	  if select symbol, price from new bind as changes
	  then execute noop unique on symbol after 1000 seconds`)
	sym := strip.Str("S0001")
	row := []strip.Value{sym, strip.Float(1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := db.Begin()
		tbl, _ := tx.WriteTable("stocks")
		recs, _ := tbl.IndexLookup("symbol", sym)
		row[1] = strip.Float(float64(i))
		if _, err := tx.Update("stocks", recs[0], row); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUniqueMerge measures appending one firing into a queued unique
// transaction (the batching hot path).
func BenchmarkUniqueMerge(b *testing.B) {
	// The rule above with a huge delay means every commit after the first
	// merges; measured together with the update it bounds merge cost.
	BenchmarkRuleProcessingOverhead(b)
}

// --- The firing path, layer by layer ----------------------------------------

// updateStock runs the one-row price update every firing benchmark is
// triggered by.
func updateStock(b *testing.B, db *strip.DB, symbol string, price float64) {
	tx := db.Begin()
	tbl, _ := tx.WriteTable("stocks")
	recs, _ := tbl.IndexLookup("symbol", strip.Str(symbol))
	if _, err := tx.Update("stocks", recs[0], []strip.Value{strip.Str(symbol), strip.Float(price)}); err != nil {
		b.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		b.Fatal(err)
	}
}

// firingDB is benchDB with one rule on stocks, unique on the updated row's
// symbol, running an empty action.
func firingDB(b *testing.B) *strip.DB {
	db := benchDB(b)
	if err := db.RegisterFunc("noop", func(*strip.ActionContext) error { return nil }); err != nil {
		b.Fatal(err)
	}
	db.MustExec(`
	  create rule r on stocks when updated price
	  if select symbol, price from new bind as changes
	  then execute noop unique on symbol`)
	return db
}

// BenchmarkFiringTrigger is the commit hook's side of a firing: a one-row
// update on a table with one rule, each firing creating its task (the task
// itself runs outside the timer). BenchmarkTable1_SimpleUpdate is the same
// update with no rule.
func BenchmarkFiringTrigger(b *testing.B) {
	db := firingDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		updateStock(b, db, "S0001", float64(i))
		b.StopTimer()
		db.RunReady()
		b.StartTimer()
	}
}

// benchFiringPartition fires a rule unique on one column whose bound table
// holds rows for `keys` distinct values of it: one split, `keys` tasks.
func benchFiringPartition(b *testing.B, keys int) {
	db := benchDB(b)
	db.MustExec(`create table memberships (comp text, symbol text, weight float)`)
	db.MustExec(`create index on memberships (symbol)`)
	for c := 0; c < keys; c++ {
		db.MustExec(fmt.Sprintf(`insert into memberships values ('C%02d', 'S0001', 0.1)`, c))
	}
	if err := db.RegisterFunc("noop", func(*strip.ActionContext) error { return nil }); err != nil {
		b.Fatal(err)
	}
	db.MustExec(`
	  create rule r on stocks when updated price
	  if select comp, weight, new.price as price from new, memberships
	     where memberships.symbol = new.symbol bind as matches
	  then execute noop unique on comp`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		updateStock(b, db, "S0001", float64(i))
		b.StopTimer()
		if n := db.RunReady(); n != keys {
			b.Fatalf("firing created %d tasks, want %d", n, keys)
		}
		b.StartTimer()
	}
}

func BenchmarkFiringPartition1Keys(b *testing.B) { benchFiringPartition(b, 1) }
func BenchmarkFiringPartition2Keys(b *testing.B) { benchFiringPartition(b, 2) }
func BenchmarkFiringPartition8Keys(b *testing.B) { benchFiringPartition(b, 8) }

// BenchmarkFiringTaskShell is the action's side of a firing with nothing
// in it: dequeue, begin, an empty action, commit, clean-up. The update that
// queues the task runs outside the timer.
func BenchmarkFiringTaskShell(b *testing.B) {
	db := firingDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		updateStock(b, db, "S0001", float64(i))
		b.StartTimer()
		if db.RunReady() != 1 {
			b.Fatal("no task to run")
		}
	}
}

// benchViewDeltaApply runs the generated delta action of a grouped-sum view
// over a firing of `rows` merged one-row updates, each joining two groups.
func benchViewDeltaApply(b *testing.B, rows int) {
	db := benchDB(b)
	db.MustExec(`create table memberships (comp text, symbol text, weight float)`)
	db.MustExec(`create index on memberships (symbol)`)
	for i := 0; i < 1000; i++ {
		db.MustExec(fmt.Sprintf(`insert into memberships values ('C%02d', 'S%04d', 0.5), ('C%02d', 'S%04d', 0.25)`,
			i%50, i, (i+7)%50, i))
	}
	def, err := strip.ParseSelect(`
	  select comp, sum(price * weight) as price from stocks, memberships
	  where stocks.symbol = memberships.symbol group by comp`)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.CreateMaterializedView("comp_view", def, strip.ViewOptions{Mode: strip.ViewModeDelta}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for r := 0; r < rows; r++ {
			n := i*rows + r
			updateStock(b, db, fmt.Sprintf("S%04d", n%1000), float64(5000+n))
		}
		when, _ := db.NextTaskTime()
		db.AdvanceTo(when)
		b.StartTimer()
		if n := db.RunReady(); n != 1 {
			b.Fatalf("the firings ran as %d tasks, want 1", n)
		}
	}
	b.StopTimer()
	if n := db.Metrics().Counters["delta.fallbacks"]; n != 0 {
		b.Fatalf("%d delta fallbacks", n)
	}
}

func BenchmarkViewDeltaApply1Rows(b *testing.B)  { benchViewDeltaApply(b, 1) }
func BenchmarkViewDeltaApply16Rows(b *testing.B) { benchViewDeltaApply(b, 16) }
