package core

import (
	"fmt"
	"sort"
	"testing"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/query"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/types"
)

// Tests of the Appendix A unique-transaction semantics beyond the common
// single-table, single-column case.

// buildBound constructs a bound-table map from literal rows.
func buildBound(t *testing.T, tables map[string][][]types.Value, schemas map[string]*catalog.Schema) map[string]*storage.TempTable {
	t.Helper()
	out := map[string]*storage.TempTable{}
	for name, rows := range tables {
		tt := storage.NewValueTempTable(schemas[name])
		for _, r := range rows {
			if err := tt.AppendValues(r...); err != nil {
				t.Fatal(err)
			}
		}
		out[name] = tt
	}
	return out
}

// partition is one unique-column combination and its bound-table subset.
type partition struct {
	key   types.Key
	bound map[string]*storage.TempTable
}

// partitionByUnique splits literal bound tables the way a firing of a rule
// `unique on uniqueOn` binding them would: the column locations come from
// the compile step, the partitions from the firing's splitter.
func partitionByUnique(uniqueOn []string, bound map[string]*storage.TempTable) ([]partition, error) {
	p := &program{rule: &Rule{Name: "r", UniqueOn: uniqueOn}}
	var names []string
	for name := range bound {
		names = append(names, name)
	}
	sort.Strings(names)
	tables := make([]*storage.TempTable, len(names))
	for i, name := range names {
		tables[i] = bound[name]
		p.sig = append(p.sig, tables[i].Schema().Rename(name))
	}
	if err := p.locateUnique(); err != nil {
		return nil, err
	}
	var parts []partition
	var buf splitBuf
	s := buf.split(p, tables)
	for key, part, ok := s.next(); ok; key, part, ok = s.next() {
		pb := map[string]*storage.TempTable{}
		for i, name := range names {
			pb[name] = part[i]
		}
		parts = append(parts, partition{key: key, bound: pb})
	}
	return parts, nil
}

func TestPartitionSingleTable(t *testing.T) {
	schema := catalog.MustSchema("m",
		catalog.Column{Name: "comp", Kind: types.KindString},
		catalog.Column{Name: "delta", Kind: types.KindFloat})
	bound := buildBound(t, map[string][][]types.Value{
		"m": {
			{types.Str("C1"), types.Float(1)},
			{types.Str("C2"), types.Float(2)},
			{types.Str("C1"), types.Float(3)},
		},
	}, map[string]*catalog.Schema{"m": schema})

	parts, err := partitionByUnique([]string{"comp"}, bound)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("parts = %d, want 2", len(parts))
	}
	byKey := map[string]int{}
	for _, p := range parts {
		byKey[p.key.At(0).Str()] = p.bound["m"].Len()
	}
	if byKey["C1"] != 2 || byKey["C2"] != 1 {
		t.Errorf("partition sizes = %v", byKey)
	}
	// Partition order follows first appearance (determinism).
	if parts[0].key.At(0).Str() != "C1" || parts[1].key.At(0).Str() != "C2" {
		t.Errorf("partition order = %v, %v", parts[0].key, parts[1].key)
	}
	for _, p := range parts {
		for _, tt := range p.bound {
			tt.Retire()
		}
	}
}

// Two unique columns in one table: partitions form per distinct pair.
func TestPartitionTwoColumns(t *testing.T) {
	schema := catalog.MustSchema("m",
		catalog.Column{Name: "a", Kind: types.KindString},
		catalog.Column{Name: "b", Kind: types.KindInt})
	bound := buildBound(t, map[string][][]types.Value{
		"m": {
			{types.Str("x"), types.Int(1)},
			{types.Str("x"), types.Int(2)},
			{types.Str("y"), types.Int(1)},
			{types.Str("x"), types.Int(1)},
		},
	}, map[string]*catalog.Schema{"m": schema})
	parts, err := partitionByUnique([]string{"a", "b"}, bound)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("parts = %d, want 3 distinct (a,b) pairs", len(parts))
	}
	sizes := map[string]int{}
	for _, p := range parts {
		sizes[p.key.String()] = p.bound["m"].Len()
	}
	if sizes["(x,1)"] != 2 || sizes["(x,2)"] != 1 || sizes["(y,1)"] != 1 {
		t.Errorf("sizes = %v", sizes)
	}
}

// Appendix A: tables without unique columns (T^a) pass whole to every
// partition; tables with them (T^u) are filtered.
func TestPartitionMixedTables(t *testing.T) {
	mSchema := catalog.MustSchema("m",
		catalog.Column{Name: "comp", Kind: types.KindString},
		catalog.Column{Name: "v", Kind: types.KindFloat})
	auxSchema := catalog.MustSchema("aux",
		catalog.Column{Name: "note", Kind: types.KindString})
	bound := buildBound(t, map[string][][]types.Value{
		"m": {
			{types.Str("C1"), types.Float(1)},
			{types.Str("C2"), types.Float(2)},
		},
		"aux": {
			{types.Str("n1")},
			{types.Str("n2")},
			{types.Str("n3")},
		},
	}, map[string]*catalog.Schema{"m": mSchema, "aux": auxSchema})
	parts, err := partitionByUnique([]string{"comp"}, bound)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("parts = %d", len(parts))
	}
	for _, p := range parts {
		if p.bound["m"].Len() != 1 {
			t.Errorf("unique table partition size = %d, want 1", p.bound["m"].Len())
		}
		if p.bound["aux"].Len() != 3 {
			t.Errorf("non-unique table rows = %d, want all 3", p.bound["aux"].Len())
		}
	}
}

// Unique columns spread across two tables: combinations come from the
// product of the tables' distinct partial keys (Appendix A's π_U(Π T^u)).
func TestPartitionCrossTableProduct(t *testing.T) {
	aSchema := catalog.MustSchema("ta",
		catalog.Column{Name: "u1", Kind: types.KindString},
		catalog.Column{Name: "pa", Kind: types.KindInt})
	bSchema := catalog.MustSchema("tb",
		catalog.Column{Name: "u2", Kind: types.KindInt},
		catalog.Column{Name: "pb", Kind: types.KindInt})
	bound := buildBound(t, map[string][][]types.Value{
		"ta": {
			{types.Str("x"), types.Int(10)},
			{types.Str("y"), types.Int(20)},
		},
		"tb": {
			{types.Int(1), types.Int(100)},
			{types.Int(2), types.Int(200)},
			{types.Int(1), types.Int(300)},
		},
	}, map[string]*catalog.Schema{"ta": aSchema, "tb": bSchema})
	parts, err := partitionByUnique([]string{"u1", "u2"}, bound)
	if err != nil {
		t.Fatal(err)
	}
	// 2 distinct u1 × 2 distinct u2 = 4 combinations.
	if len(parts) != 4 {
		t.Fatalf("parts = %d, want 4", len(parts))
	}
	var keys []string
	for _, p := range parts {
		keys = append(keys, p.key.String())
		// Each partition's ta rows match u1; tb rows match u2.
		for i := 0; i < p.bound["ta"].Len(); i++ {
			if !p.bound["ta"].Value(i, 0).Equal(p.key.At(0)) {
				t.Error("ta row in wrong partition")
			}
		}
		for i := 0; i < p.bound["tb"].Len(); i++ {
			if !p.bound["tb"].Value(i, 0).Equal(p.key.At(1)) {
				t.Error("tb row in wrong partition")
			}
		}
	}
	sort.Strings(keys)
	want := []string{"(x,1)", "(x,2)", "(y,1)", "(y,2)"}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v", keys)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	schema := catalog.MustSchema("m", catalog.Column{Name: "a", Kind: types.KindString})
	dup := catalog.MustSchema("m2", catalog.Column{Name: "a", Kind: types.KindString})
	bound := buildBound(t, map[string][][]types.Value{
		"m":  {{types.Str("x")}},
		"m2": {{types.Str("y")}},
	}, map[string]*catalog.Schema{"m": schema, "m2": dup})
	if _, err := partitionByUnique([]string{"a"}, bound); err == nil {
		t.Error("ambiguous unique column accepted")
	}
	if _, err := partitionByUnique([]string{"zzz"}, bound); err == nil {
		t.Error("missing unique column accepted")
	}
	if _, err := partitionByUnique([]string{"a", "a", "a", "a", "a"}, bound); err == nil {
		t.Error("oversized unique key accepted")
	}
}

// Empty unique table produces no transactions (Appendix A: unique_cols is
// empty so nothing enqueues).
func TestPartitionEmptyUniqueTable(t *testing.T) {
	schema := catalog.MustSchema("m", catalog.Column{Name: "a", Kind: types.KindString})
	bound := buildBound(t, map[string][][]types.Value{"m": {}},
		map[string]*catalog.Schema{"m": schema})
	parts, err := partitionByUnique([]string{"a"}, bound)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 0 {
		t.Errorf("parts = %d, want 0", len(parts))
	}
}

// End-to-end: a rule unique on two columns batches only exact pairs.
func TestUniqueOnTwoColumnsEndToEnd(t *testing.T) {
	db := newTestDB(t)
	var seen []string
	db.register("f", func(ctx *ActionContext) error {
		m, _ := ctx.Bound("pairs")
		seen = append(seen, fmt.Sprintf("%d", m.Len()))
		return nil
	})
	db.mustCreate(&Rule{
		Name:   "r",
		Table:  "comps_list",
		Events: []EventSpec{{Kind: Updated}},
		Condition: []*query.Select{{
			Items: []query.SelectItem{
				query.Item(query.QCol("new", "comp"), ""),
				query.Item(query.QCol("new", "symbol"), ""),
			},
			From: []string{"new"},
			Bind: "pairs",
		}},
		Action:   "f",
		Unique:   true,
		UniqueOn: []string{"comp", "symbol"},
		Delay:    1_000_000,
	})
	// Two updates of the same (comp,symbol) row batch; a different pair
	// makes its own task.
	tbl, _ := db.txns.Store.Get("comps_list")
	var rec *storage.Record
	tbl.Scan(func(r *storage.Record) bool { rec = r; return false })
	tx := db.txns.Begin()
	r2, err := tx.Update("comps_list", rec, []types.Value{rec.Value(0), rec.Value(1), types.Float(0.6)})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := db.txns.Begin()
	if _, err := tx2.Update("comps_list", r2, []types.Value{r2.Value(0), r2.Value(1), types.Float(0.7)}); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	st := db.engine.Stats("f")
	if st.TasksCreated != 1 || st.TasksMerged != 1 {
		t.Fatalf("created/merged = %d/%d, want 1/1", st.TasksCreated, st.TasksMerged)
	}
	db.clk.AdvanceTo(2_000_000)
	db.drain()
	if len(seen) != 1 || seen[0] != "2" {
		t.Errorf("seen = %v, want one task with 2 rows", seen)
	}
}

// Actions resolve bound tables before database tables of the same name
// (paper §6.3 shadowing).
func TestBoundTableShadowsDatabase(t *testing.T) {
	db := newTestDB(t)
	var shadowed int
	db.register("f", func(ctx *ActionContext) error {
		// The bound table is named "stocks", shadowing the real table.
		out, err := ctx.Query(&query.Select{
			Items: []query.SelectItem{query.Item(query.Col("price"), "")},
			From:  []string{"stocks"},
		})
		if err != nil {
			return err
		}
		defer out.Retire()
		shadowed = out.Len()
		return nil
	})
	db.mustCreate(&Rule{
		Name:   "r",
		Table:  "stocks",
		Events: []EventSpec{{Kind: Updated}},
		Condition: []*query.Select{{
			Items: []query.SelectItem{query.Item(query.QCol("new", "price"), "price")},
			From:  []string{"new"},
			Bind:  "stocks", // deliberately shadows the base table
		}},
		Action: "f",
	})
	db.setPrice("S1", 31)
	db.drain()
	// The base stocks table has 3 rows; the bound one has 1.
	if shadowed != 1 {
		t.Errorf("action saw %d rows; bound table did not shadow", shadowed)
	}
}
