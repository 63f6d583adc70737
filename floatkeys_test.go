package strip

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/stripdb/strip/client"
	"github.com/stripdb/strip/internal/query"
)

// TestFloatAccessPathsAgree stores the FLOAT values whose equality is
// special — two NaNs of different bit patterns, −0 and +0, ±Inf — and
// requires every access path to find the same rows for each of them: a
// probe under no index, a hash index and a red-black tree, each read
// locked and from a snapshot; GROUP BY on the column; and the same rows
// served over the wire. The rule is the value system's: all NaNs are one
// value, and so are the two zeros.
func TestFloatAccessPathsAgree(t *testing.T) {
	vals := []float64{
		math.NaN(),
		math.Float64frombits(0xfff0000000000001), // a negative NaN with another payload
		math.Copysign(0, -1),
		0,
		math.Inf(1),
		math.Inf(-1),
		1.5,
	}
	// class is the reference's equality: the two NaNs are one value, and
	// the two zeros another.
	class := func(f float64) string {
		if f != f {
			return "NaN"
		}
		return fmt.Sprint(f + 0) // −0 + 0 is +0
	}
	for _, kind := range []string{"none", "hash", "tree"} {
		t.Run(kind, func(t *testing.T) {
			db := serveOpen(t, Config{Workers: 1})
			db.MustExec(`create table t (k int, f float)`)
			for i, f := range vals {
				if err := db.Insert("t", Int(int64(i)), Float(f)); err != nil {
					t.Fatal(err)
				}
			}
			if kind != "none" {
				if err := db.CreateIndex("t", "f", kind); err != nil {
					t.Fatal(err)
				}
			}
			for _, probe := range vals {
				var want []int64
				for i, f := range vals {
					if class(f) == class(probe) {
						want = append(want, int64(i))
					}
				}
				sel := &Select{
					From:  []string{"t"},
					Items: []query.SelectItem{query.Item(query.Col("k"), "k")},
					Where: []query.Pred{query.Eq(query.Col("f"), query.Const(Float(probe)))},
				}
				snap, _, err := db.Query(sel)
				if err != nil {
					t.Fatal(err)
				}
				tx := db.Begin()
				var locked query.RowSlice
				if err := sel.RunTo(tx, query.TxnResolver{}, nil, &locked); err != nil {
					t.Fatal(err)
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				for _, got := range []struct {
					how  string
					rows [][]Value
				}{{"snapshot", snap}, {"locked", locked.Rows()}} {
					var keys []int64
					for _, r := range got.rows {
						keys = append(keys, r[0].Int())
					}
					slices.Sort(keys)
					if !slices.Equal(keys, want) {
						t.Errorf("f = %v (%s read): rows %v, want %v", probe, got.how, keys, want)
					}
				}
			}

			groups := map[string]int64{}
			for _, f := range vals {
				groups[class(f)]++
			}
			c := serveDial(t, db, client.Options{})
			for _, sql := range []string{
				`select k, f from t`,
				`select f, count(k) as n from t group by f`,
				`select k from t where f = -0.0`,
				`select k from t where f = 0.0`,
			} {
				emb, err := db.Exec(sql)
				if err != nil {
					t.Fatal(err)
				}
				served, err := c.Query(sql)
				if err != nil {
					t.Fatal(err)
				}
				if !sameResult(emb.Columns, emb.Rows, served.Columns, served.Rows) {
					t.Errorf("%s: embedded %v, served %v", sql, emb.Rows, served.Rows)
				}
				switch sql {
				case `select f, count(k) as n from t group by f`:
					got := map[string]int64{}
					for _, r := range emb.Rows {
						got[class(r[0].Float())] += r[1].Int()
					}
					if len(emb.Rows) != len(groups) || fmt.Sprint(got) != fmt.Sprint(groups) {
						t.Errorf("%s: %v, want one group per value class %v", sql, emb.Rows, groups)
					}
				case `select k from t where f = -0.0`, `select k from t where f = 0.0`:
					if len(emb.Rows) != 2 {
						t.Errorf("%s: %v, want the two zero rows", sql, emb.Rows)
					}
				}
			}
		})
	}
}
