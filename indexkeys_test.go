package strip

import (
	"fmt"
	"testing"

	"github.com/stripdb/strip/client"
)

// TestIndexKeysCompareNumerically: an index must not change a statement's
// rows. A scan compares INT and FLOAT numerically (3 = 3.0), so a probe of
// an INT column with an integral FLOAT key, or of a FLOAT column with an
// INT key, finds what the scan finds, and a non-integral FLOAT key finds no
// INT. Each statement runs with no index and under each index kind,
// embedded and served, auto-committed and inside a transaction; every way
// must give the same rows and the same affected counts. The DML runs in
// transactions that are rolled back, so the table stays as loaded.
func TestIndexKeysCompareNumerically(t *testing.T) {
	queries := []struct{ sql, want string }{
		{`select id from t where f = 3`, "[[3]]"},
		{`select id from t where id = 3.0`, "[[3]]"},
		{`select id from t where f = 4.5`, "[[4]]"},
		{`select id from t where f = 4`, "[]"},
		{`select id from t where id = 4.5`, "[]"},
		{`select id from t where id = 4`, "[[4]]"},
	}
	dml := []struct {
		sql  string
		want int
	}{
		{`update t set id = 9 where f = 3`, 1},
		{`update t set f = 0 where id = 3.0`, 1},
		{`delete from t where id = 3.0`, 1},
		{`delete from t where f = 4`, 0},
		{`update t set f = 0 where id = 4.5`, 0},
	}
	for _, using := range []string{"", "hash", "rbtree"} {
		name := using
		if name == "" {
			name = "no_index"
		}
		t.Run(name, func(t *testing.T) {
			db := serveOpen(t, Config{Workers: 1})
			db.MustExec(`create table t (id int, f float)`)
			db.MustExec(`insert into t values (3, 3.0)`)
			db.MustExec(`insert into t values (4, 4.5)`)
			if using != "" {
				db.MustExec(`create index on t (f) using ` + using)
				db.MustExec(`create index on t (id) using ` + using)
			}
			c := serveDial(t, db, client.Options{})
			for _, q := range queries {
				got := map[string][][]Value{}
				res, err := db.Exec(q.sql)
				if err != nil {
					t.Fatalf("%s: embedded: %v", q.sql, err)
				}
				got["embedded"] = res.Rows
				tx := db.Begin()
				if res, err = db.ExecIn(tx, q.sql); err != nil {
					t.Fatalf("%s: embedded in a transaction: %v", q.sql, err)
				}
				got["embedded in a transaction"] = res.Rows
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				served, err := c.Query(q.sql)
				if err != nil {
					t.Fatalf("%s: served: %v", q.sql, err)
				}
				got["served"] = served.Rows
				if err := c.Begin(); err != nil {
					t.Fatal(err)
				}
				if served, err = c.Query(q.sql); err != nil {
					t.Fatalf("%s: served in BEGIN…COMMIT: %v", q.sql, err)
				}
				got["served in BEGIN…COMMIT"] = served.Rows
				if err := c.Commit(); err != nil {
					t.Fatal(err)
				}
				for how, rows := range got {
					if s := fmt.Sprint(rows); s != q.want && !(len(rows) == 0 && q.want == "[]") {
						t.Errorf("%s (%s): rows %s, want %s", q.sql, how, s, q.want)
					}
				}
			}
			for _, d := range dml {
				tx := db.Begin()
				res, err := db.ExecIn(tx, d.sql)
				if err != nil {
					t.Fatalf("%s: embedded in a transaction: %v", d.sql, err)
				}
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
				if res.Affected != d.want {
					t.Errorf("%s (embedded in a transaction): %d rows affected, want %d", d.sql, res.Affected, d.want)
				}
				if err := c.Begin(); err != nil {
					t.Fatal(err)
				}
				served, err := c.Exec(d.sql)
				if err != nil {
					t.Fatalf("%s: served in BEGIN…ABORT: %v", d.sql, err)
				}
				if err := c.Abort(); err != nil {
					t.Fatal(err)
				}
				if served.Affected != d.want {
					t.Errorf("%s (served in BEGIN…ABORT): %d rows affected, want %d", d.sql, served.Affected, d.want)
				}
			}
			// (A rollback relinks a row at the end of the scan order.)
			if res := db.MustExec(`select id, f from t order by id`); fmt.Sprint(res.Rows) != "[[3 3] [4 4.5]]" {
				t.Fatalf("rolled-back DML left %v", res.Rows)
			}
		})
	}
}
