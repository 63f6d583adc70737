package storage

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/types"
)

// matchesSchema mimics the paper's `matches` bound table: comp and weight
// come from a comps_list record (ptr 0), old_price from the old stock record
// (ptr 1), new_price from the new stock record (ptr 2), and diff is a
// materialized computed column.
func matchesSchema() *catalog.Schema {
	return catalog.MustSchema("matches",
		catalog.Column{Name: "comp", Kind: types.KindString},
		catalog.Column{Name: "weight", Kind: types.KindFloat},
		catalog.Column{Name: "old_price", Kind: types.KindFloat},
		catalog.Column{Name: "new_price", Kind: types.KindFloat},
		catalog.Column{Name: "diff", Kind: types.KindFloat},
	)
}

func matchesSrcMap() []ColSource {
	return []ColSource{
		FromRecord(0, 0), // comp from comps_list.comp
		FromRecord(0, 2), // weight from comps_list.weight
		FromRecord(1, 1), // old_price from old stocks.price
		FromRecord(2, 1), // new_price from new stocks.price
		Materialized(0),  // diff computed at bind time
	}
}

func buildBase(t *testing.T) (stocks, compsList *Table) {
	t.Helper()
	stocks = NewTable(catalog.MustSchema("stocks",
		catalog.Column{Name: "symbol", Kind: types.KindString},
		catalog.Column{Name: "price", Kind: types.KindFloat}))
	compsList = NewTable(catalog.MustSchema("comps_list",
		catalog.Column{Name: "comp", Kind: types.KindString},
		catalog.Column{Name: "symbol", Kind: types.KindString},
		catalog.Column{Name: "weight", Kind: types.KindFloat}))
	return
}

func TestNewTempTableValidation(t *testing.T) {
	s := matchesSchema()
	if _, err := NewTempTable(s, []ColSource{Materialized(0)}, 0); err == nil {
		t.Error("short srcMap accepted")
	}
	bad := matchesSrcMap()
	bad[0] = FromRecord(5, 0)
	if _, err := NewTempTable(s, bad, 3); err == nil {
		t.Error("out-of-range pointer accepted")
	}
	bad2 := matchesSrcMap()
	bad2[4] = Materialized(3) // wrong value slot
	if _, err := NewTempTable(s, bad2, 3); err == nil {
		t.Error("misnumbered value slot accepted")
	}
	if _, err := NewTempTable(s, matchesSrcMap(), 3); err != nil {
		t.Errorf("valid map rejected: %v", err)
	}
}

func TestTempTablePointerResolution(t *testing.T) {
	stocks, compsList := buildBase(t)
	oldRec := mustInsert(t, stocks, types.Str("S1"), types.Float(30))
	cl := mustInsert(t, compsList, types.Str("C1"), types.Str("S1"), types.Float(0.5))
	newRec, err := stocks.Update(oldRec, []types.Value{types.Str("S1"), types.Float(31)})
	if err != nil {
		t.Fatal(err)
	}

	tt, err := NewTempTable(matchesSchema(), matchesSrcMap(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tt.AppendRow([]*Record{cl, oldRec, newRec}, []types.Value{types.Float(0.5)}); err != nil {
		t.Fatal(err)
	}
	if tt.Len() != 1 || tt.NumPtrs() != 3 {
		t.Fatalf("Len/NumPtrs = %d/%d", tt.Len(), tt.NumPtrs())
	}
	row := tt.Row(0)
	want := []types.Value{types.Str("C1"), types.Float(0.5), types.Float(30), types.Float(31), types.Float(0.5)}
	for i := range want {
		if !row[i].Equal(want[i]) {
			t.Errorf("col %d = %v, want %v", i, row[i], want[i])
		}
	}
	// Records are pinned by the row.
	if oldRec.Refs() != 1 || newRec.Refs() != 1 || cl.Refs() != 1 {
		t.Error("records not pinned")
	}
	tt.Retire()
	if oldRec.Refs() != 0 {
		t.Error("retire did not unpin")
	}
	if !tt.Retired() || tt.Len() != 0 {
		t.Error("retire state wrong")
	}
	tt.Retire() // idempotent
	if err := tt.AppendRow([]*Record{cl, oldRec, newRec}, []types.Value{types.Float(1)}); err == nil {
		t.Error("append after retire accepted")
	}
}

// The defining property of the §6.1 scheme: a bound table continues to see
// the record images captured at bind time even after the base table moves on.
func TestTempTableSurvivesBaseUpdates(t *testing.T) {
	stocks, _ := buildBase(t)
	r1 := mustInsert(t, stocks, types.Str("S1"), types.Float(30))

	schema := catalog.MustSchema("snap", catalog.Column{Name: "price", Kind: types.KindFloat})
	tt, err := NewTempTable(schema, []ColSource{FromRecord(0, 1)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tt.AppendRow([]*Record{r1}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := stocks.Update(r1, []types.Value{types.Str("S1"), types.Float(99)}); err != nil {
		t.Fatal(err)
	}
	if got := tt.Value(0, 0).Float(); got != 30 {
		t.Errorf("bound table saw %g after base update, want 30", got)
	}
	tt.Retire()
	if got := stocks.Stats().RetiredHeld; got != 0 {
		t.Errorf("RetiredHeld after retire = %d", got)
	}
}

func TestAppendRowArityChecks(t *testing.T) {
	tt, err := NewTempTable(matchesSchema(), matchesSrcMap(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tt.AppendRow(nil, []types.Value{types.Float(1)}); err == nil {
		t.Error("wrong pointer arity accepted")
	}
	stocks, _ := buildBase(t)
	r := mustInsert(t, stocks, types.Str("S"), types.Float(1))
	if err := tt.AppendRow([]*Record{r, r, r}, nil); err == nil {
		t.Error("wrong value arity accepted")
	}
}

func TestValueTempTable(t *testing.T) {
	s := catalog.MustSchema("agg",
		catalog.Column{Name: "comp", Kind: types.KindString},
		catalog.Column{Name: "diff", Kind: types.KindFloat})
	tt := NewValueTempTable(s)
	if err := tt.AppendValues(types.Str("C1"), types.Float(1.5)); err != nil {
		t.Fatal(err)
	}
	if got := tt.Value(0, 1).Float(); got != 1.5 {
		t.Errorf("value = %g", got)
	}
}

func TestAppendFrom(t *testing.T) {
	stocks, compsList := buildBase(t)
	o := mustInsert(t, stocks, types.Str("S1"), types.Float(30))
	c := mustInsert(t, compsList, types.Str("C1"), types.Str("S1"), types.Float(0.5))
	n, err := stocks.Update(o, []types.Value{types.Str("S1"), types.Float(31)})
	if err != nil {
		t.Fatal(err)
	}

	a, _ := NewTempTable(matchesSchema(), matchesSrcMap(), 3)
	b, _ := NewTempTable(matchesSchema().Rename("matches2"), matchesSrcMap(), 3)
	if err := b.AppendRow([]*Record{c, o, n}, []types.Value{types.Float(0.5)}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendRow([]*Record{c, o, n}, []types.Value{types.Float(0.7)}); err != nil {
		t.Fatal(err)
	}
	if err := a.AppendFrom(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 2 {
		t.Fatalf("AppendFrom copied %d rows", a.Len())
	}
	// Both tables hold pins: 2 rows each, 3 ptrs per row but on 3 records.
	if o.Refs() != 4 { // 2 rows in a + 2 rows in b reference o once each
		t.Errorf("o.Refs = %d, want 4", o.Refs())
	}
	// A copy pins on its own behalf.
	a2 := b.Copy()
	if a2.Len() != 2 || a2.Value(1, 4).Float() != 0.7 || o.Refs() != 6 {
		t.Errorf("Copy: %d rows, o.Refs = %d", a2.Len(), o.Refs())
	}
	// Mismatched schemas rejected.
	other := NewValueTempTable(catalog.MustSchema("x", catalog.Column{Name: "y", Kind: types.KindInt}))
	if err := a.AppendFrom(other); err == nil {
		t.Error("AppendFrom across schemas accepted")
	}
	// Mismatched static maps rejected even with equal schemas.
	vt := NewValueTempTable(matchesSchema())
	if err := a.AppendFrom(vt); err == nil {
		t.Error("AppendFrom across static maps accepted")
	}
	a.Retire()
	b.Retire()
	a2.Retire()
	if o.Refs() != 0 || n.Refs() != 0 || c.Refs() != 0 {
		t.Error("pins leaked after retiring all tables")
	}
}

func TestClone(t *testing.T) {
	tt, _ := NewTempTable(matchesSchema(), matchesSrcMap(), 3)
	cl := tt.Clone()
	if cl.Len() != 0 || cl.NumPtrs() != 3 || !cl.Schema().Equal(tt.Schema()) {
		t.Error("clone shape wrong")
	}
	if err := tt.AppendFrom(cl); err != nil {
		t.Errorf("clone not append-compatible: %v", err)
	}
}

func TestStore(t *testing.T) {
	st := NewStore()
	s := catalog.MustSchema("t1", catalog.Column{Name: "a", Kind: types.KindInt})
	tbl, err := st.Create(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Create(s); err == nil {
		t.Error("duplicate create accepted")
	}
	got, ok := st.Get("t1")
	if !ok || got != tbl {
		t.Error("Get failed")
	}
	if err := st.Drop("t1"); err != nil {
		t.Fatal(err)
	}
	if err := st.Drop("t1"); err == nil {
		t.Error("double drop accepted")
	}
	if _, ok := st.Get("t1"); ok {
		t.Error("Get after drop succeeded")
	}
}

// Property: pin counts balance — after any sequence of appends across two
// compatible temp tables followed by retiring both, every record's refcount
// returns to zero.
func TestQuickPinBalance(t *testing.T) {
	f := func(rows []uint8) bool {
		stocks := NewTable(catalog.MustSchema("s",
			catalog.Column{Name: "sym", Kind: types.KindString},
			catalog.Column{Name: "p", Kind: types.KindFloat}))
		recs := make([]*Record, 8)
		for i := range recs {
			r, err := stocks.Insert([]types.Value{types.Str("x"), types.Float(float64(i))})
			if err != nil {
				return false
			}
			recs[i] = r
		}
		schema := catalog.MustSchema("tt", catalog.Column{Name: "p", Kind: types.KindFloat})
		src := []ColSource{FromRecord(0, 1)}
		a, _ := NewTempTable(schema, src, 1)
		b, _ := NewTempTable(schema, src, 1)
		for _, ri := range rows {
			if err := a.AppendRow([]*Record{recs[int(ri)%8]}, nil); err != nil {
				return false
			}
		}
		if err := b.AppendFrom(a); err != nil {
			return false
		}
		part := make([]int, a.Len())
		for i := range part {
			part[i] = i % 2
		}
		halves := a.Split(part, []int{(len(part) + 1) / 2, len(part) / 2})
		c := halves[0].Copy()
		for _, tt := range []*TempTable{a, b, c, &halves[0], &halves[1]} {
			tt.Retire()
		}
		for _, r := range recs {
			if r.Refs() != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestTempTableModel drives a family of identically defined temp tables
// through random AppendRow / AppendFrom / Split /
// Truncate / Permute / Clone / Retire and checks every table
// against a naive [][]Value copy of what it should hold. When the last
// table is retired every contributing record's pin count must be back
// where it started: each operation pins and unpins exactly its rows.
func TestTempTableModel(t *testing.T) {
	stocks, comps := buildBase(t)
	var stockRecs, compRecs []*Record
	for i := 0; i < 12; i++ {
		r, err := stocks.Insert([]types.Value{types.Str(string(rune('A' + i))), types.Float(float64(10 * i))})
		if err != nil {
			t.Fatal(err)
		}
		stockRecs = append(stockRecs, r)
		c, err := comps.Insert([]types.Value{types.Str("C"), types.Str(string(rune('A' + i))), types.Float(float64(i) / 4)})
		if err != nil {
			t.Fatal(err)
		}
		compRecs = append(compRecs, c)
	}
	all := append(append([]*Record(nil), stockRecs...), compRecs...)

	type pair struct {
		tt  *TempTable
		ref [][]types.Value
	}
	check := func(step int, op string, p *pair) {
		t.Helper()
		if p.tt.Len() != len(p.ref) {
			t.Fatalf("step %d (%s): Len = %d, model has %d rows", step, op, p.tt.Len(), len(p.ref))
		}
		for i, want := range p.ref {
			if got := p.tt.Row(i); !slices.Equal(got, want) {
				t.Fatalf("step %d (%s): row %d = %v, model has %v", step, op, i, got, want)
			}
		}
	}

	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		first, err := NewTempTable(matchesSchema(), matchesSrcMap(), 3)
		if err != nil {
			t.Fatal(err)
		}
		live := []*pair{{tt: first}}
		for step := 0; step < 400; step++ {
			p := live[rng.Intn(len(live))]
			op := "append row"
			switch k := rng.Intn(12); {
			case k < 5:
				c, o, n := compRecs[rng.Intn(12)], stockRecs[rng.Intn(12)], stockRecs[rng.Intn(12)]
				diff := types.Float(float64(rng.Intn(8)))
				if err := p.tt.AppendRow([]*Record{c, o, n}, []types.Value{diff}); err != nil {
					t.Fatal(err)
				}
				p.ref = append(p.ref, []types.Value{c.Value(0), c.Value(2), o.Value(1), n.Value(1), diff})
			case k < 7:
				op = "append from"
				src := live[rng.Intn(len(live))]
				if src == p {
					continue
				}
				if err := p.tt.AppendFrom(src.tt); err != nil {
					t.Fatal(err)
				}
				p.ref = append(p.ref, src.ref...)
			case k < 8:
				// Split consumes the table: its rows land, in order, in the
				// part the row index picks, and the table itself is retired.
				op = "split"
				n := 1 + rng.Intn(3)
				part := make([]int, len(p.ref))
				parts := make([]*pair, n)
				for i := range parts {
					parts[i] = &pair{}
				}
				for i := range part {
					part[i] = rng.Intn(n)
					parts[part[i]].ref = append(parts[part[i]].ref, p.ref[i])
				}
				counts := make([]int, n)
				for i := range parts {
					counts[i] = len(parts[i].ref)
				}
				out := p.tt.Split(part, counts)
				if !p.tt.Retired() {
					t.Fatalf("step %d: Split left its source live", step)
				}
				live = slices.DeleteFunc(live, func(q *pair) bool { return q == p })
				for i := range parts {
					parts[i].tt = &out[i]
					check(step, op, parts[i])
					live = append(live, parts[i])
				}
				continue
			case k < 9:
				op = "truncate"
				n := rng.Intn(len(p.ref) + 3) // sometimes past the end: a no-op
				p.tt.Truncate(n)
				if n < len(p.ref) {
					p.ref = p.ref[:n]
				}
			case k < 10:
				op = "sort"
				col, desc := rng.Intn(5), rng.Intn(2) == 0
				less := func(a, b []types.Value) bool {
					if desc {
						return a[col].Compare(b[col]) > 0
					}
					return a[col].Compare(b[col]) < 0
				}
				perm := make([]int, p.tt.Len())
				for i := range perm {
					perm[i] = i
				}
				sort.SliceStable(perm, func(a, b int) bool { return less(p.tt.Row(perm[a]), p.tt.Row(perm[b])) })
				p.tt.Permute(perm)
				sort.SliceStable(p.ref, func(a, b int) bool { return less(p.ref[a], p.ref[b]) })
			case k < 11:
				op = "clone"
				live = append(live, &pair{tt: p.tt.Clone()})
				p = live[len(live)-1]
			default:
				op = "retire"
				if len(live) == 1 {
					continue
				}
				p.tt.Retire()
				p.ref = nil
				if p.tt.AppendRow([]*Record{compRecs[0], stockRecs[0], stockRecs[0]}, []types.Value{types.Null()}) == nil {
					t.Fatalf("step %d: append to a retired table succeeded", step)
				}
				check(step, op, p)
				live = slices.DeleteFunc(live, func(q *pair) bool { return q == p })
				continue
			}
			check(step, op, p)
		}
		for _, p := range live {
			p.tt.Retire()
		}
		for i, r := range all {
			if r.Refs() != 0 {
				t.Fatalf("seed %d: record %d still holds %d pins after every table retired", seed, i, r.Refs())
			}
		}
	}
}

// BenchmarkTempAppendRow appends the repo benchmark's scan result — 2,746
// rows of one pointer (both columns come from the stocks record) — into a
// fresh temp table per iteration, then retires it.
func BenchmarkTempAppendRow(b *testing.B) {
	const rows = 2746
	stocks := NewTable(catalog.MustSchema("stocks",
		catalog.Column{Name: "symbol", Kind: types.KindString},
		catalog.Column{Name: "price", Kind: types.KindInt}))
	recs := make([]*Record, rows)
	for i := range recs {
		recs[i], _ = stocks.Insert([]types.Value{types.Str("S"), types.Int(int64(i))})
	}
	srcMap := []ColSource{FromRecord(0, 0), FromRecord(0, 1)}
	ptrs := make([]*Record, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tt, err := NewTempTable(stocks.Schema(), srcMap, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range recs {
			ptrs[0] = r
			if err := tt.AppendRow(ptrs, nil); err != nil {
				b.Fatal(err)
			}
		}
		tt.Retire()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
}
