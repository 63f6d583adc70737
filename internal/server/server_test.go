package server

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/clock"
	"github.com/stripdb/strip/internal/cost"
	"github.com/stripdb/strip/internal/lock"
	"github.com/stripdb/strip/internal/obs"
	"github.com/stripdb/strip/internal/query"
	"github.com/stripdb/strip/internal/sqlparse"
	"github.com/stripdb/strip/internal/storage"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

// testBackend implements Backend over a bare transaction manager — the
// same wiring the root facade provides, minus rules — so the server's
// whole lifecycle is testable inside this package.
type testBackend struct {
	mgr       *txn.Manager
	stmts     *sqlparse.Cache
	saturated atomic.Bool
}

func (b *testBackend) Statements() *sqlparse.Cache { return b.stmts }

func (b *testBackend) Begin() *txn.Txn    { return b.mgr.Begin() }
func (b *testBackend) Obs() *obs.Registry { return b.mgr.Obs }
func (b *testBackend) Now() int64         { return b.mgr.Clock.Now() }
func (b *testBackend) Saturated() bool    { return b.saturated.Load() }

func (b *testBackend) Repl() ReplStreamer { return nil }

func (b *testBackend) ReplicaInfo() (bool, bool, int64) { return false, false, 0 }

func (b *testBackend) Exec(stmt sqlparse.Stmt, params []types.Value, rows query.RowSink) (int, error) {
	if _, ok := stmt.(*sqlparse.SelectStmt); ok {
		tx := b.mgr.BeginReadOnly()
		defer tx.Commit() //nolint:errcheck
		return b.ExecIn(tx, stmt, params, rows)
	}
	tx := b.mgr.Begin()
	n, err := b.ExecIn(tx, stmt, params, rows)
	if err != nil {
		tx.Abort() //nolint:errcheck
		return 0, err
	}
	return n, tx.Commit()
}

func (b *testBackend) ExecIn(tx *txn.Txn, stmt sqlparse.Stmt, params []types.Value, rows query.RowSink) (int, error) {
	switch s := stmt.(type) {
	case *sqlparse.SelectStmt:
		return 0, s.Query.RunTo(tx, query.TxnResolver{}, params, rows)
	case *sqlparse.InsertStmt:
		return s.Stmt.Run(tx)
	case *sqlparse.UpdateStmt:
		return s.Stmt.RunParams(tx, params)
	case *sqlparse.DeleteStmt:
		return s.Stmt.RunParams(tx, params)
	default:
		return 0, fmt.Errorf("test backend: unsupported %T", stmt)
	}
}

// serverEnv starts a server over a stocks table (S1/30, S2/40, S3/50).
func serverEnv(t testing.TB, cfg Config) (*Server, *testBackend, *lock.Manager) {
	t.Helper()
	cat := catalog.New()
	store := storage.NewStore()
	schema := catalog.MustSchema("stocks",
		catalog.Column{Name: "symbol", Kind: types.KindString},
		catalog.Column{Name: "price", Kind: types.KindFloat})
	if err := cat.Define(schema); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Create(schema); err != nil {
		t.Fatal(err)
	}
	lm := lock.New()
	mgr := txn.NewManager(cat, store, lm, clock.NewReal(), cost.NewMeter(), cost.Default())
	tx := mgr.Begin()
	for _, r := range [][]types.Value{
		{types.Str("S1"), types.Float(30)},
		{types.Str("S2"), types.Float(40)},
		{types.Str("S3"), types.Float(50)},
	} {
		if _, err := tx.Insert("stocks", r); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	be := &testBackend{mgr: mgr, stmts: sqlparse.NewCache()}
	cfg.Addr = "127.0.0.1:0"
	srv, err := Start(cfg, be)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //nolint:errcheck
	return srv, be, lm
}

// dialRaw connects without handshaking.
func dialRaw(t testing.TB, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// dialHello connects and completes the handshake.
func dialHello(t testing.TB, addr, token, tenant string) net.Conn {
	t.Helper()
	conn := dialRaw(t, addr)
	if err := WriteFrame(conn, FrameHello, EncodeHello(token, tenant)); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if typ != FrameWelcome {
		code, msg, _ := DecodeErr(payload)
		t.Fatalf("handshake: got frame 0x%02x (%s: %s)", typ, code, msg)
	}
	return conn
}

// roundTrip sends one frame and returns the response.
func roundTrip(t testing.TB, conn net.Conn, typ byte, payload []byte) (byte, []byte) {
	t.Helper()
	if err := WriteFrame(conn, typ, payload); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	rt, rp, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	return rt, rp
}

// wantErrCode asserts the frame is an ERR with the given code and returns
// the decoded typed error.
func wantErrCode(t testing.TB, typ byte, payload []byte, want Code) error {
	t.Helper()
	if typ != FrameErr {
		t.Fatalf("got frame 0x%02x, want ERR", typ)
	}
	code, msg, err := DecodeErr(payload)
	if err != nil {
		t.Fatal(err)
	}
	if code != want {
		t.Fatalf("code = %s (%s), want %s", code, msg, want)
	}
	return DecodeError(code, msg)
}

func waitNoLocks(t testing.TB, lm *lock.Manager) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for lm.ActiveLocks() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("locks leaked: ActiveLocks = %d", lm.ActiveLocks())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestServerQueryExecPing(t *testing.T) {
	srv, _, _ := serverEnv(t, Config{})
	conn := dialHello(t, srv.Addr(), "", "acme")
	defer conn.Close()

	typ, p := roundTrip(t, conn, FramePing, nil)
	if typ != FramePong {
		t.Fatalf("ping answered 0x%02x", typ)
	}

	typ, p = roundTrip(t, conn, FrameExec, EncodeSQL("insert into stocks values ('S4', 60)"))
	if typ != FrameOK {
		t.Fatalf("exec answered 0x%02x: %s", typ, p)
	}
	if n, _ := DecodeOK(p); n != 1 {
		t.Fatalf("affected = %d", n)
	}

	typ, p = roundTrip(t, conn, FrameQuery, EncodeSQL("select symbol, price from stocks"))
	if typ != FrameRows {
		t.Fatalf("query answered 0x%02x: %s", typ, p)
	}
	cols, rows, err := DecodeRows(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || cols[0] != "symbol" {
		t.Fatalf("cols = %v", cols)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}

	// QUERY frames carry SELECT only.
	typ, p = roundTrip(t, conn, FrameQuery, EncodeSQL("delete from stocks"))
	wantErrCode(t, typ, p, CodeBadRequest)
}

func TestServerAuthRejected(t *testing.T) {
	srv, be, _ := serverEnv(t, Config{AuthToken: "sekrit"})

	conn := dialRaw(t, srv.Addr())
	defer conn.Close()
	if err := WriteFrame(conn, FrameHello, EncodeHello("wrong", "acme")); err != nil {
		t.Fatal(err)
	}
	typ, p, err := ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	werr := wantErrCode(t, typ, p, CodeAuth)
	if !errors.Is(werr, ErrAuth) {
		t.Fatalf("decoded error %v does not match ErrAuth", werr)
	}
	if be.Obs().Counter(obs.MServerAuthFail).Load() == 0 {
		t.Error("auth failure counter never moved")
	}

	// The right token still works.
	good := dialHello(t, srv.Addr(), "sekrit", "acme")
	good.Close()
}

func TestServerInteractiveTxn(t *testing.T) {
	srv, _, lm := serverEnv(t, Config{})
	conn := dialHello(t, srv.Addr(), "", "")
	defer conn.Close()

	typ, p := roundTrip(t, conn, FrameBegin, nil)
	if typ != FrameOK {
		t.Fatalf("begin answered 0x%02x", typ)
	}
	// Double BEGIN is a state error.
	typ, p = roundTrip(t, conn, FrameBegin, nil)
	wantErrCode(t, typ, p, CodeTxnState)

	typ, p = roundTrip(t, conn, FrameExec, EncodeSQL("update stocks set price = 31 where symbol = 'S1'"))
	if typ != FrameOK {
		t.Fatalf("in-txn exec answered 0x%02x: %s", typ, p)
	}
	// Reads inside the transaction see own writes.
	typ, p = roundTrip(t, conn, FrameQuery, EncodeSQL("select price from stocks where symbol = 'S1'"))
	if typ != FrameRows {
		t.Fatalf("in-txn query answered 0x%02x", typ)
	}
	_, rows, err := DecodeRows(p)
	if err != nil || len(rows) != 1 || rows[0][0].Float() != 31 {
		t.Fatalf("in-txn read: rows=%v err=%v", rows, err)
	}
	if lm.ActiveLocks() == 0 {
		t.Fatal("interactive txn holds no locks")
	}

	typ, _ = roundTrip(t, conn, FrameCommit, nil)
	if typ != FrameOK {
		t.Fatalf("commit answered 0x%02x", typ)
	}
	waitNoLocks(t, lm)

	// COMMIT with nothing open is a state error.
	typ, p = roundTrip(t, conn, FrameCommit, nil)
	wantErrCode(t, typ, p, CodeTxnState)
}

func TestServerIdleTxnReaped(t *testing.T) {
	srv, be, lm := serverEnv(t, Config{IdleTxnTimeout: 150 * time.Millisecond})
	conn := dialHello(t, srv.Addr(), "", "")
	defer conn.Close()

	if typ, _ := roundTrip(t, conn, FrameBegin, nil); typ != FrameOK {
		t.Fatal("begin failed")
	}
	typ, _ := roundTrip(t, conn, FrameExec, EncodeSQL("update stocks set price = 99 where symbol = 'S2'"))
	if typ != FrameOK {
		t.Fatal("exec failed")
	}
	if lm.ActiveLocks() == 0 {
		t.Fatal("no locks held before reap")
	}

	// Go idle past the timeout: the reaper must abort the txn and release
	// its locks even though the connection stays up.
	waitNoLocks(t, lm)
	if be.Obs().Counter(obs.MServerTxnsReaped).Load() == 0 {
		t.Error("reap counter never moved")
	}

	// Statements sent before the session acknowledges the reap must NOT run
	// auto-committed — half the transaction durably applied while the rest
	// rolled back would break atomicity.
	typ, p := roundTrip(t, conn, FrameExec, EncodeSQL("update stocks set price = 11 where symbol = 'S1'"))
	wantErrCode(t, typ, p, CodeTxnState)
	typ, p = roundTrip(t, conn, FrameQuery, EncodeSQL("select price from stocks"))
	wantErrCode(t, typ, p, CodeTxnState)

	// The session learns at COMMIT.
	typ, p = roundTrip(t, conn, FrameCommit, nil)
	werr := wantErrCode(t, typ, p, CodeTxnState)
	if !errors.Is(werr, ErrTxnState) {
		t.Fatalf("decoded error %v does not match ErrTxnState", werr)
	}

	// The update was rolled back.
	typ, p = roundTrip(t, conn, FrameQuery, EncodeSQL("select price from stocks where symbol = 'S2'"))
	if typ != FrameRows {
		t.Fatal("query failed")
	}
	_, rows, _ := DecodeRows(p)
	if len(rows) != 1 || rows[0][0].Float() != 40 {
		t.Fatalf("reaped txn leaked its write: %v", rows)
	}
	// ... and the statement rejected post-reap never ran at all.
	typ, p = roundTrip(t, conn, FrameQuery, EncodeSQL("select price from stocks where symbol = 'S1'"))
	if typ != FrameRows {
		t.Fatal("query failed")
	}
	_, rows, _ = DecodeRows(p)
	if len(rows) != 1 || rows[0][0].Float() != 30 {
		t.Fatalf("post-reap statement ran auto-committed: %v", rows)
	}
}

func TestServerResultTooLarge(t *testing.T) {
	srv, _, _ := serverEnv(t, Config{})
	conn := dialHello(t, srv.Addr(), "", "")
	defer conn.Close()

	// Grow the table until one SELECT's encoding exceeds MaxFrame.
	big := strings.Repeat("x", 3<<19) // 1.5 MiB per row
	for i := 0; i < 3; i++ {
		typ, p := roundTrip(t, conn, FrameExec, EncodeSQL("insert into stocks values ('"+big+"', 1)"))
		if typ != FrameOK {
			t.Fatalf("insert answered 0x%02x: %s", typ, p)
		}
	}
	typ, p := roundTrip(t, conn, FrameQuery, EncodeSQL("select symbol from stocks"))
	werr := wantErrCode(t, typ, p, CodeTooLarge)
	if !errors.Is(werr, ErrTooLarge) {
		t.Fatalf("decoded error %v does not match ErrTooLarge", werr)
	}
	// The oversized result is an application error, not a connection killer:
	// the same session still serves bounded queries.
	typ, p = roundTrip(t, conn, FrameQuery, EncodeSQL("select price from stocks where symbol = 'S1'"))
	if typ != FrameRows {
		t.Fatalf("follow-up query answered 0x%02x: %s", typ, p)
	}
}

func TestServerDisconnectAbortsTxn(t *testing.T) {
	srv, _, lm := serverEnv(t, Config{})
	conn := dialHello(t, srv.Addr(), "", "")

	if typ, _ := roundTrip(t, conn, FrameBegin, nil); typ != FrameOK {
		t.Fatal("begin failed")
	}
	typ, _ := roundTrip(t, conn, FrameExec, EncodeSQL("update stocks set price = 77 where symbol = 'S3'"))
	if typ != FrameOK {
		t.Fatal("exec failed")
	}
	if lm.ActiveLocks() == 0 {
		t.Fatal("no locks held")
	}
	// Vanish mid-transaction. The session cleanup must abort and release.
	conn.Close()
	waitNoLocks(t, lm)

	deadline := time.Now().Add(5 * time.Second)
	for srv.sessionCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("session never deregistered (%d live)", srv.sessionCount())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The write is gone.
	conn2 := dialHello(t, srv.Addr(), "", "")
	defer conn2.Close()
	typ, p := roundTrip(t, conn2, FrameQuery, EncodeSQL("select price from stocks where symbol = 'S3'"))
	if typ != FrameRows {
		t.Fatal("query failed")
	}
	_, rows, _ := DecodeRows(p)
	if len(rows) != 1 || rows[0][0].Float() != 50 {
		t.Fatalf("disconnected txn leaked its write: %v", rows)
	}
}

func TestServerBusyShed(t *testing.T) {
	srv, be, _ := serverEnv(t, Config{MaxConns: 1})
	conn := dialHello(t, srv.Addr(), "", "")
	defer conn.Close()

	// Engine saturation sheds statements with a retryable busy error.
	be.saturated.Store(true)
	typ, p := roundTrip(t, conn, FrameQuery, EncodeSQL("select * from stocks"))
	werr := wantErrCode(t, typ, p, CodeBusy)
	if !errors.Is(werr, ErrBusy) {
		t.Fatalf("decoded busy error %v does not match ErrBusy", werr)
	}
	be.saturated.Store(false)
	if typ, _ = roundTrip(t, conn, FrameQuery, EncodeSQL("select * from stocks")); typ != FrameRows {
		t.Fatalf("post-saturation query answered 0x%02x", typ)
	}

	// The connection cap turns extra connections away with busy too.
	conn2 := dialRaw(t, srv.Addr())
	defer conn2.Close()
	if err := WriteFrame(conn2, FrameHello, EncodeHello("", "")); err != nil {
		t.Fatal(err)
	}
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	typ, p, err := ReadFrame(conn2)
	if err != nil {
		t.Fatal(err)
	}
	wantErrCode(t, typ, p, CodeBusy)
	if be.Obs().Counter(obs.MServerBusy).Load() < 2 {
		t.Error("busy counter undercounts")
	}
}

func TestServerTenantInflightLimit(t *testing.T) {
	srv, _, _ := serverEnv(t, Config{TenantInflight: 1})
	// Claim tenant acme's single slot directly, then verify a statement
	// from the same tenant is shed while another tenant still runs.
	release, ok := srv.admit("acme")
	if !ok {
		t.Fatal("first admit refused")
	}
	conn := dialHello(t, srv.Addr(), "", "acme")
	defer conn.Close()
	typ, p := roundTrip(t, conn, FrameQuery, EncodeSQL("select * from stocks"))
	wantErrCode(t, typ, p, CodeBusy)

	other := dialHello(t, srv.Addr(), "", "globex")
	defer other.Close()
	if typ, _ := roundTrip(t, other, FrameQuery, EncodeSQL("select * from stocks")); typ != FrameRows {
		t.Fatalf("other tenant shed too (0x%02x)", typ)
	}
	release()
	if typ, _ := roundTrip(t, conn, FrameQuery, EncodeSQL("select * from stocks")); typ != FrameRows {
		t.Fatalf("released slot still shed (0x%02x)", typ)
	}
}

func TestServerConcurrentSessions(t *testing.T) {
	srv, _, lm := serverEnv(t, Config{})
	const sessions = 8
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			conn := dialHello(t, srv.Addr(), "", fmt.Sprintf("t%d", id%2))
			defer conn.Close()
			for j := 0; j < 20; j++ {
				typ, p := roundTrip(t, conn, FrameQuery, EncodeSQL("select symbol, price from stocks"))
				if typ != FrameRows {
					code, msg, _ := DecodeErr(p)
					t.Errorf("session %d query %d: 0x%02x %s %s", id, j, typ, code, msg)
					return
				}
				if _, rows, err := DecodeRows(p); err != nil || len(rows) < 3 {
					t.Errorf("session %d query %d: rows=%d err=%v", id, j, len(rows), err)
					return
				}
				if j%5 == 0 {
					if typ, _ := roundTrip(t, conn, FramePing, nil); typ != FramePong {
						t.Errorf("session %d: ping failed", id)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	waitNoLocks(t, lm)
}

func TestServerDrain(t *testing.T) {
	srv, _, lm := serverEnv(t, Config{DrainTimeout: 2 * time.Second})
	conn := dialHello(t, srv.Addr(), "", "")
	defer conn.Close()

	if typ, _ := roundTrip(t, conn, FrameBegin, nil); typ != FrameOK {
		t.Fatal("begin failed")
	}
	if typ, _ := roundTrip(t, conn, FrameExec, EncodeSQL("update stocks set price = 31 where symbol = 'S1'")); typ != FrameOK {
		t.Fatal("exec failed")
	}

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New work is rejected with the shutting-down code...
	typ, p := roundTrip(t, conn, FrameQuery, EncodeSQL("select * from stocks"))
	werr := wantErrCode(t, typ, p, CodeShuttingDown)
	if werr == nil {
		t.Fatal("nil decoded error")
	}
	// ...but the in-flight transaction may still commit.
	typ, p = roundTrip(t, conn, FrameCommit, nil)
	if typ != FrameOK {
		t.Fatalf("drain commit answered 0x%02x: %s", typ, p)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := lm.ActiveLocks(); n != 0 {
		t.Fatalf("locks leaked through drain: %d", n)
	}

	// Fresh connections are refused: either the dial itself fails (listener
	// closed) or the handshake is answered with the shutting-down code.
	conn2, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
	if err == nil {
		defer conn2.Close()
		if werr := WriteFrame(conn2, FrameHello, EncodeHello("", "")); werr == nil {
			conn2.SetReadDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
			if typ, p, rerr := ReadFrame(conn2); rerr == nil {
				wantErrCode(t, typ, p, CodeShuttingDown)
			}
		}
	}
}

func TestServerSessionsDebug(t *testing.T) {
	srv, _, _ := serverEnv(t, Config{})
	conn := dialHello(t, srv.Addr(), "", "acme")
	defer conn.Close()
	if typ, _ := roundTrip(t, conn, FrameBegin, nil); typ != FrameOK {
		t.Fatal("begin failed")
	}
	infos := srv.Sessions()
	if len(infos) != 1 {
		t.Fatalf("sessions = %d, want 1", len(infos))
	}
	if infos[0].Tenant != "acme" || !infos[0].InTxn {
		t.Fatalf("session info %+v", infos[0])
	}
	roundTrip(t, conn, FrameAbort, nil)
}

// A served statement is parsed when its shape is first seen and never again,
// whichever way it runs: auto-committed EXEC or QUERY, and EXEC / QUERY
// inside an interactive transaction. The session prepares the text through
// the statement cache to classify the frame and the backend gets the
// prepared statement, never the text; the same statement with other literals
// of the same kinds is a cache hit. INSERT is not cached: it parses every
// time, once.
func TestServerParsesEachStatementOnce(t *testing.T) {
	srv, _, _ := serverEnv(t, Config{})
	conn := dialHello(t, srv.Addr(), "", "acme")
	defer conn.Close()
	send := func(typ byte, sql string, want int64) (byte, []byte) {
		t.Helper()
		before := sqlparse.ParseCalls()
		rt, p := roundTrip(t, conn, typ, EncodeSQL(sql))
		if rt == FrameErr {
			code, msg, _ := DecodeErr(p)
			t.Fatalf("%q answered %s: %s", sql, code, msg)
		}
		if got := sqlparse.ParseCalls() - before; got != want {
			t.Errorf("%q was parsed %d times, want %d", sql, got, want)
		}
		return rt, p
	}
	send(FrameExec, "insert into stocks values ('S4', 60)", 1)
	send(FrameExec, "insert into stocks values ('S5', 70)", 1)
	send(FrameExec, "update stocks set price = 61 where symbol = 'S4'", 1)
	send(FrameExec, "update stocks set price = 71 where symbol = 'S5'", 0)
	send(FrameQuery, "select symbol, price from stocks where symbol = 'S4'", 1)
	_, p := send(FrameQuery, "select symbol, price from stocks where symbol = 'S5'", 0)
	if _, rows, err := DecodeRows(p); err != nil || len(rows) != 1 || rows[0][0].Str() != "S5" || rows[0][1].Float() != 71 {
		t.Fatalf("cache hit returned %v (%v), want [S5 71]", rows, err)
	}
	send(FrameExec, "select symbol from stocks", 1)
	send(FrameExec, "select symbol from stocks", 0)
	if rt, _ := roundTrip(t, conn, FrameBegin, nil); rt != FrameOK {
		t.Fatalf("BEGIN answered 0x%02x", rt)
	}
	send(FrameExec, "update stocks set price = 62 where symbol = 'S4'", 0)
	send(FrameQuery, "select symbol, price from stocks where symbol = 'S4'", 0)
	send(FrameExec, "delete from stocks where symbol = 'S4'", 1)
	send(FrameExec, "delete from stocks where symbol = 'S5'", 0)
	if rt, _ := roundTrip(t, conn, FrameCommit, nil); rt != FrameOK {
		t.Fatalf("COMMIT answered 0x%02x", rt)
	}
}

// TestSessionBufferCapped: a session that read a statement and served a
// result each larger than frameBufCap keeps neither buffer, while the
// buffers of the ordinary frames that follow are kept for reuse.
func TestSessionBufferCapped(t *testing.T) {
	srv, _, _ := serverEnv(t, Config{})
	conn := dialHello(t, srv.Addr(), "", "")
	srv.mu.Lock()
	var sess *session
	for _, s := range srv.sessions {
		sess = s
	}
	srv.mu.Unlock()

	big := strings.Repeat("x", frameBufCap)
	if typ, p := roundTrip(t, conn, FrameExec, EncodeSQL("insert into stocks values ('"+big+"', 1)")); typ != FrameOK {
		t.Fatalf("insert answered 0x%02x: %s", typ, p)
	}
	if typ, p := roundTrip(t, conn, FrameQuery, EncodeSQL("select symbol from stocks")); typ != FrameRows || len(p) <= frameBufCap {
		t.Fatalf("big query answered 0x%02x with %d bytes", typ, len(p))
	}
	if typ, p := roundTrip(t, conn, FrameQuery, EncodeSQL("select price from stocks where symbol = 'S1'")); typ != FrameRows {
		t.Fatalf("small query answered 0x%02x: %s", typ, p)
	}
	// Once the session has ended, its buffers are safe to read here.
	conn.Close()
	for srv.sessionCount() != 0 {
		time.Sleep(time.Millisecond)
	}
	if in, out := cap(sess.io.in), cap(sess.io.out); in > frameBufCap || out > frameBufCap || in == 0 || out == 0 {
		t.Errorf("session keeps %d B to read frames and %d B to write them, want each in (0, %d]", in, out, frameBufCap)
	}
}
