package strip

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/stripdb/strip/client"
	"github.com/stripdb/strip/internal/sqlparse"
)

// serveOpen opens an engine with the network listener (and optionally
// stripmon) bound to ephemeral localhost ports.
func serveOpen(t testing.TB, cfg Config) *DB {
	t.Helper()
	cfg.ListenAddr = "127.0.0.1:0"
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() }) //nolint:errcheck // double Close is fine
	return db
}

func serveDial(t testing.TB, db *DB, opts client.Options) *client.Client {
	t.Helper()
	c, err := client.Dial(db.ServerAddr(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() }) //nolint:errcheck
	return c
}

// End-to-end smoke over the wire: DDL, DML, queries, an interactive
// transaction, and the stripmon surface (/metrics and /debug/sessions)
// scraped while sessions are live.
func TestServeSmoke(t *testing.T) {
	db := serveOpen(t, Config{MonitorAddr: "127.0.0.1:0"})
	c := serveDial(t, db, client.Options{})

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`create table stocks (symbol text, price float)`,
		`insert into stocks values ('IBM', 110)`,
		`insert into stocks values ('DEC', 60)`,
	} {
		if _, err := c.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	res, err := c.Query(`select symbol, price from stocks where price > 100`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "IBM" {
		t.Fatalf("query rows = %v, want one IBM row", res.Rows)
	}
	if len(res.Columns) != 2 || res.Columns[0] != "symbol" {
		t.Fatalf("columns = %v", res.Columns)
	}

	// Interactive transaction: read-own-writes before commit, visible after.
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`insert into stocks values ('HP', 80)`); err != nil {
		t.Fatal(err)
	}
	res, err = c.Exec(`select symbol from stocks where symbol = 'HP'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("read-own-writes rows = %d, want 1", len(res.Rows))
	}
	if err := c.Commit(); err != nil {
		t.Fatal(err)
	}
	if r := db.MustExec(`select symbol from stocks`); len(r.Rows) != 3 {
		t.Fatalf("embedded sees %d rows after remote commit, want 3", len(r.Rows))
	}

	// Scrape stripmon while the session is live: /debug/sessions lists it,
	// /metrics exposes the server.* families.
	body := httpGet(t, "http://"+db.MonitorAddr()+"/debug/sessions")
	if !strings.Contains(body, `"sessions"`) || !strings.Contains(body, `"draining": false`) {
		t.Fatalf("/debug/sessions = %s", body)
	}
	if got := len(db.ServerSessions()); got != 1 {
		t.Fatalf("ServerSessions = %d, want 1", got)
	}
	metrics := httpGet(t, "http://"+db.MonitorAddr()+"/metrics")
	for _, fam := range []string{"server_connections", "server_queries", "server_active_sessions"} {
		if !strings.Contains(metrics, fam) {
			t.Fatalf("/metrics missing %s family", fam)
		}
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// A forced busy shed over the wire: with MaxConns 1 the second connection
// is refused with the retryable busy code, and the facade's classifiers
// (strip.ErrBusy, strip.IsRetryable) see it.
func TestServeBusyShedOverWire(t *testing.T) {
	db := serveOpen(t, Config{Serve: ServeOptions{MaxConns: 1}})
	_ = serveDial(t, db, client.Options{}) // occupies the only slot

	_, err := client.Dial(db.ServerAddr(), client.Options{})
	if err == nil {
		t.Fatal("second Dial succeeded, want busy refusal")
	}
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("second Dial = %v, want errors.Is ErrBusy", err)
	}
	if !IsRetryable(err) {
		t.Fatalf("busy refusal %v not IsRetryable", err)
	}
}

// Drain on Close over the wire: new statements are rejected with the
// shutting-down code, the in-flight session transaction still commits, and
// no locks leak.
func TestServeDrainOnClose(t *testing.T) {
	db := serveOpen(t, Config{Serve: ServeOptions{DrainTimeout: 3 * time.Second}})
	db.MustExec(`create table kv (k text, v float)`)

	c := serveDial(t, db, client.Options{BusyRetries: -1})
	if err := c.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`insert into kv values ('held', 1)`); err != nil {
		t.Fatal(err)
	}

	closed := make(chan error, 1)
	go func() { closed <- db.Close() }()

	// Wait for the drain to begin: new work gets the shutting-down code.
	deadline := time.Now().Add(2 * time.Second)
	for {
		_, err := c.Query(`select k from kv`)
		if errors.Is(err, ErrShuttingDown) {
			break
		}
		if err != nil {
			t.Fatalf("query during drain = %v, want ErrShuttingDown", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never rejected new work")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The open transaction still commits inside the drain window.
	if err := c.Commit(); err != nil {
		t.Fatalf("commit during drain = %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close = %v", err)
	}
	if n := db.locks.ActiveLocks(); n != 0 {
		t.Fatalf("ActiveLocks after drain = %d, want 0", n)
	}

	// The commit was durable in-memory: reopening view via a fresh engine is
	// moot (no DataDir), but the lock table being empty plus the commit
	// having been acknowledged is the contract under test.
	if _, err := client.Dial(db.ServerAddr(), client.Options{DialTimeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("Dial after Close succeeded, want refusal")
	}
}

// Authentication is enforced end to end through the facade config.
func TestServeAuthToken(t *testing.T) {
	db := serveOpen(t, Config{Serve: ServeOptions{AuthToken: "sesame"}})
	if _, err := client.Dial(db.ServerAddr(), client.Options{Token: "wrong"}); err == nil {
		t.Fatal("bad token accepted")
	}
	c := serveDial(t, db, client.Options{Token: "sesame"})
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// A statement's shape is parsed the first time any entry point sees it and
// never again, whatever literals later texts carry: served QUERY and EXEC,
// embedded Exec, ExecIn inside a transaction, and ExecAction / QueryAction
// inside a rule action all prepare through the one statement cache. INSERT
// is not cached and parses once per call.
func TestServeParsesEachStatementOnce(t *testing.T) {
	db := serveOpen(t, Config{})
	c := serveDial(t, db, client.Options{})
	db.MustExec(`create table kv (k text, v float)`)
	db.MustExec(`create index on kv (k)`)
	db.MustExec(`create table log (k text, v float)`)
	db.MustExec(`insert into kv values ('a', 1), ('b', 2)`)

	parses := func(want int64, what string, run func() error) {
		t.Helper()
		before := sqlparse.ParseCalls()
		if err := run(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := sqlparse.ParseCalls() - before; got != want {
			t.Errorf("%s was parsed %d times, want %d", what, got, want)
		}
	}
	exec := func(sql string) func() error {
		return func() error { _, err := c.Exec(sql); return err }
	}
	parses(1, "EXEC update, first sight", exec(`update kv set v += 1 where k = 'a'`))
	parses(0, "EXEC update, other literals", exec(`update kv set v += 2 where k = 'b'`))
	parses(1, "EXEC insert", exec(`insert into kv values ('c', 3)`))
	parses(1, "EXEC insert again", exec(`insert into kv values ('d', 4)`))
	var got *client.Result
	query := func(sql string) func() error {
		return func() (err error) { got, err = c.Query(sql); return err }
	}
	parses(1, "QUERY, first sight", query(`select k, v from kv where k = 'a'`))
	parses(0, "QUERY, other literals", query(`select k, v from kv where k = 'b'`))
	if len(got.Rows) != 1 || got.Rows[0][0].Str() != "b" || got.Rows[0][1].Float() != 4 {
		t.Fatalf("cache hit returned %v, want [b 4]", got.Rows)
	}
	// The embedded entry points share the served ones' templates.
	parses(0, "DB.Exec of a served shape", func() error {
		_, err := db.Exec(`update kv set v += 1 where k = 'c'`)
		return err
	})
	parses(0, "DB.ExecIn of a served shape", func() error {
		tx := db.Begin()
		if _, err := db.ExecIn(tx, `select k, v from kv where k = 'c'`); err != nil {
			return err
		}
		if _, err := db.ExecIn(tx, `update kv set v += 1 where k = 'c'`); err != nil {
			return err
		}
		return tx.Commit()
	})

	// A rule action running SQL: each firing carries new literals.
	fired := make(chan error, 1)
	if err := db.RegisterFunc("copy", func(ctx *ActionContext) error {
		rows, _, err := QueryAction(ctx, `select k, v from changed where v > 0`)
		for _, r := range rows {
			if err == nil {
				_, err = ExecAction(ctx, fmt.Sprintf(`update log set v = %.1f where k = '%s'`, r[1].Float()+0.5, r[0].Str()))
			}
		}
		fired <- err
		return err
	}); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`insert into log values ('a', 0), ('b', 0)`)
	db.MustExec(`create rule copy_kv on kv when updated v
		if select k, v from new bind as changed then execute copy`)
	fire := func(sql string) func() error {
		return func() error {
			if _, err := db.Exec(sql); err != nil {
				return err
			}
			select {
			case err := <-fired:
				return err
			case <-time.After(5 * time.Second):
				return errors.New("the rule's action did not run")
			}
		}
	}
	parses(2, "first firing: QueryAction + ExecAction", fire(`update kv set v += 1 where k = 'a'`))
	parses(0, "second firing, other literals", fire(`update kv set v += 1 where k = 'b'`))
	// The actions commit after their functions return; give the second a
	// moment.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		res := db.MustExec(`select k, v from log order by k`)
		if len(res.Rows) == 2 && res.Rows[0][1].Float() == 3.5 && res.Rows[1][1].Float() == 5.5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("actions wrote %v, want a=3.5 b=5.5", res.Rows)
		}
	}
}
