package strip

import (
	"fmt"
	"runtime/debug"
	"strings"
	"testing"

	"github.com/stripdb/strip/client"
)

// servedSelectDB serves the repo benchmark's stocks table at its size: 5,000
// rows, prices 100..199 in a fixed scramble (`price >= 145` keeps 55 %),
// indexed on symbol.
func servedSelectDB(b *testing.B) *client.Client {
	const stocks = 5000
	db := serveOpen(b, Config{})
	c := serveDial(b, db, client.Options{})
	if _, err := c.Exec(`create table stocks (symbol text, price int)`); err != nil {
		b.Fatal(err)
	}
	for lo := 0; lo < stocks; lo += 500 {
		rows := make([]string, 0, 500)
		for i := lo; i < lo+500; i++ {
			rows = append(rows, fmt.Sprintf("('S%04d', %d)", i, 100+i*37%100))
		}
		if _, err := c.Exec(`insert into stocks values ` + strings.Join(rows, ", ")); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := c.Exec(`create index on stocks (symbol)`); err != nil {
		b.Fatal(err)
	}
	return c
}

// benchServed sends sql(i) for each iteration over one loopback connection
// and reports the rows it got back per second next to ns/op. allocs/op
// counts both ends, client and server, as they share the process.
func benchServed(b *testing.B, sql func(i int) string) {
	c := servedSelectDB(b)
	texts := make([]string, b.N+1)
	for i := range texts {
		texts[i] = sql(i)
	}
	if _, err := c.Query(texts[b.N]); err != nil { // parse and plan once
		b.Fatal(err)
	}
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for _, text := range texts[:b.N] {
		res, err := c.Query(text)
		if err != nil {
			b.Fatal(err)
		}
		rows += len(res.Rows)
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkServedSelect*: a served SELECT from the client's first frame byte
// out to its last byte in — wire codec, statement cache, plan, snapshot
// storage walk, result encoding — for the read_mix shapes: a point lookup
// whose literals never repeat, the sum over every row, and a filter keeping
// 55 % of the rows.
func BenchmarkServedSelectPoint(b *testing.B) {
	benchServed(b, func(i int) string {
		return fmt.Sprintf("select symbol, price from stocks where symbol = 'S%04d' and price < %d", i%5000, 1_000_000+i)
	})
}

func BenchmarkServedSelectAgg(b *testing.B) {
	benchServed(b, func(int) string { return "select sum(price) as s from stocks" })
}

func BenchmarkServedSelectFilter(b *testing.B) {
	benchServed(b, func(int) string { return "select symbol, price from stocks where price >= 145" })
}

// TestServedSelectAllocs holds a served SELECT, client and server together,
// to a number of allocations per statement that does not grow with its
// rows: the session encodes each row from its record straight into a frame
// buffer it keeps, so ten times the rows cost no more allocations, and the
// statement allocates fewer objects than servedCopyAllocs, the count when
// the rows were copied into a temp table, a row slice and a fresh payload
// on their way out.
func TestServedSelectAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const servedCopyAllocs = 36
	db := serveOpen(t, Config{})
	c := serveDial(t, db, client.Options{})
	db.MustExec(`create table t (k text, v int)`)
	insert := func(from, to int) {
		for i := from; i < to; i++ {
			db.MustExec(fmt.Sprintf(`insert into t values ('k%04d', %d)`, i, i))
		}
	}
	perStatement := func(want int) float64 {
		query := func() {
			res, err := c.Query(`select k, v from t where v >= 0`)
			if err != nil || len(res.Rows) != want {
				t.Fatalf("%d rows, %v; want %d rows", len(res.Rows), err, want)
			}
		}
		query()
		return testing.AllocsPerRun(50, query)
	}
	// No GC while measuring: it would empty the scan's record-set pool.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	insert(0, 50)
	small := perStatement(50)
	insert(50, 500)
	large := perStatement(500)
	t.Logf("%.1f allocs per statement at 50 rows, %.1f at 500", small, large)
	if large > small {
		t.Errorf("%.1f allocs at 50 rows but %.1f at 500: the served path allocates per row", small, large)
	}
	if large >= servedCopyAllocs {
		t.Errorf("%.1f allocs per statement, want fewer than %d", large, servedCopyAllocs)
	}
}
