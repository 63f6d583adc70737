package strip

import (
	"encoding/hex"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/stripdb/strip/client"
	"github.com/stripdb/strip/internal/server"
)

// servedQuery sends one QUERY frame over a fresh raw connection and returns
// the reply's type and payload bytes exactly as the server wrote them.
func servedQuery(t *testing.T, db *DB, sql string) (byte, []byte) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", db.ServerAddr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	if err := server.WriteFrame(conn, server.FrameHello, server.EncodeHello("", "")); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := server.ReadFrame(conn); err != nil || typ != server.FrameWelcome {
		t.Fatalf("handshake: 0x%02x %v", typ, err)
	}
	if err := server.WriteFrame(conn, server.FrameQuery, server.EncodeSQL(sql)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := server.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	return typ, payload
}

// TestRowsPayloadGolden pins the ROWS payload of a fixed result byte for
// byte — column count, names, row count, then each value's kind byte and
// encoding — so that a client written against an older server keeps
// decoding what a newer one sends.
func TestRowsPayloadGolden(t *testing.T) {
	db := serveOpen(t, Config{})
	for _, sql := range []string{
		`create table g (name text, n int, x float)`,
		`insert into g values ('a', 1, 1.5)`,
		`insert into g values ('bb', -300, 0.25)`,
	} {
		db.MustExec(sql)
	}
	for _, tc := range []struct{ sql, want string }{
		{`select name, n, x from g`,
			"03" + "046e616d65" + "016e" + "0178" + "02" +
				"030161" + "0102" + "023ff8000000000000" +
				"03026262" + "01d704" + "023fd0000000000000"},
		{`select n from g where n > 100`, "01" + "016e" + "00"},
	} {
		typ, payload := servedQuery(t, db, tc.sql)
		if typ != server.FrameRows {
			t.Fatalf("%s: reply 0x%02x: %q", tc.sql, typ, payload)
		}
		if got := hex.EncodeToString(payload); got != tc.want {
			t.Errorf("%s: ROWS payload\n%s\nwant\n%s", tc.sql, got, tc.want)
		}
	}
}

// TestServedResultsAgree runs the same SELECTs three ways — served
// auto-committed, served inside BEGIN…COMMIT, and through the embedded
// API — and requires the same columns and rows, in the same order, from
// each: the six EXPLAIN golden shapes, ORDER BY, LIMIT, GROUP BY, an
// aggregate over no rows, and float columns.
func TestServedResultsAgree(t *testing.T) {
	db := serveOpen(t, Config{Workers: 1})
	loadBenchShapes(t, db)
	c := serveDial(t, db, client.Options{})
	for _, sql := range []string{
		// The six TestExplainGoldens shapes.
		`select symbol, price from stocks where price >= 120`,
		`select comp, price from comps_list, stocks
			where comps_list.comp = 'C1' and stocks.symbol = comps_list.symbol and price > 110`,
		`select comp, price from comps_list, stocks
			where comps_list.comp = 'C1' and weight > 100 and stocks.symbol = comps_list.symbol`,
		`select comp, sum(weight*price) as v from comps_list, stocks
			where stocks.symbol = comps_list.symbol group by comp limit 1`,
		`select comps_list.symbol, price from comps_list, stocks
			where stocks.symbol = comps_list.symbol limit 1`,
		`select symbol from stocks where 1 = 2`,
		// ORDER BY (with ties broken by scan order), LIMIT, GROUP BY.
		`select comp, weight from comps_list order by weight desc`,
		`select symbol, price from stocks where price < 130 order by price desc limit 4`,
		`select symbol from stocks limit 3`,
		`select weight, count(comp) as n, sum(weight) as s from comps_list group by weight order by weight`,
		`select comp, sum(weight) as s from comps_list group by comp`,
		// No GROUP BY over no rows: no row at all.
		`select count(price) as n from stocks where price > 1000`,
		// Float columns: computed, averaged.
		`select symbol, price * 1.5 as p from stocks where price < 105`,
		`select comp, avg(weight) as a from comps_list group by comp`,
		`select * from stocks where symbol = 'S07'`,
		`select symbol, price / 4 as q from stocks where symbol = 'S07'`,
	} {
		emb, err := db.Exec(sql)
		if err != nil {
			t.Fatalf("%s: embedded: %v", sql, err)
		}
		sel, err := ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		qrows, qcols, err := db.Query(sel)
		if err != nil {
			t.Fatalf("%s: db.Query: %v", sql, err)
		}
		auto, err := c.Query(sql)
		if err != nil {
			t.Fatalf("%s: served: %v", sql, err)
		}
		if err := c.Begin(); err != nil {
			t.Fatal(err)
		}
		inTxn, err := c.Query(sql)
		if err != nil {
			t.Fatalf("%s: served in a transaction: %v", sql, err)
		}
		if err := c.Commit(); err != nil {
			t.Fatal(err)
		}
		for _, other := range []struct {
			how  string
			cols []string
			rows [][]Value
		}{
			{"db.Query", qcols, qrows},
			{"served auto-committed", auto.Columns, auto.Rows},
			{"served in BEGIN…COMMIT", inTxn.Columns, inTxn.Rows},
		} {
			if !sameResult(emb.Columns, emb.Rows, other.cols, other.rows) {
				t.Errorf("%s:\n db.Exec %v %v\n %s %v %v", sql, emb.Columns, emb.Rows, other.how, other.cols, other.rows)
			}
		}
	}
}

func sameResult(ac []string, ar [][]Value, bc []string, br [][]Value) bool {
	if len(ac) != len(bc) || len(ar) != len(br) {
		return false
	}
	for i := range ac {
		if ac[i] != bc[i] {
			return false
		}
	}
	for i := range ar {
		if len(ar[i]) != len(br[i]) {
			return false
		}
		for j := range ar[i] {
			if ar[i][j] != br[i][j] {
				return false
			}
		}
	}
	return true
}

// TestClientSharedAcrossGoroutines: one client serves several goroutines at
// once. Each reply is decoded out of the connection's reused read buffer
// before the next request may overwrite it, so every goroutine gets its own
// statement's rows intact (run it under -race).
func TestClientSharedAcrossGoroutines(t *testing.T) {
	db := serveOpen(t, Config{Workers: 1})
	loadBenchShapes(t, db)
	c := serveDial(t, db, client.Options{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				lo := 100 + (g*7+i)%40
				res, err := c.Query(fmt.Sprintf(`select symbol, price from stocks where price >= %d`, lo))
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Rows) != 140-lo {
					t.Errorf("price >= %d: %d rows, want %d", lo, len(res.Rows), 140-lo)
					return
				}
				for _, r := range res.Rows {
					if p := r[1].Int(); p < int64(lo) || r[0].Str() != fmt.Sprintf("S%02d", p-100) {
						t.Errorf("price >= %d: row %v", lo, r)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
