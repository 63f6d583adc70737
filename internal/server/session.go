package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stripdb/strip/internal/obs"
	"github.com/stripdb/strip/internal/sqlparse"
	"github.com/stripdb/strip/internal/txn"
)

// handshakeTimeout bounds how long a fresh connection may dawdle before
// sending HELLO.
const handshakeTimeout = 5 * time.Second

// pollInterval is the read-deadline used by the frame loop while waiting
// for a frame to BEGIN. The loop wakes this often even with no traffic, so
// it notices drain, session-lifetime expiry, and its own reaped
// transaction promptly.
const pollInterval = 250 * time.Millisecond

// frameTimeout bounds reading the REMAINDER of a frame once its first byte
// has arrived. An idle-poll deadline must never expire mid-frame — a
// partial read would desynchronize the stream — so the deadline is
// extended the moment a frame begins.
const frameTimeout = 10 * time.Second

// session is one connection's server-side state. The frame loop runs in a
// single goroutine; mu serializes it against the reaper, which may abort
// an idle interactive transaction from outside.
type session struct {
	id       int64
	srv      *Server
	conn     net.Conn
	br       *bufio.Reader
	openedAt time.Time

	// io holds the connection's frame buffers; rows streams a SELECT's
	// result into io's outgoing frame.
	io   FrameIO
	rows rowsFrame

	tenant string

	// maxLagMicros is the session's staleness bound from HELLO: on a replica,
	// reads are refused (retryable) while replication lag exceeds it. 0 means
	// the client accepts any lag.
	maxLagMicros int64

	// streaming marks a session converted into a replication WAL stream by
	// REPL_STREAM; such sessions are exempt from the SessionLifetime cap.
	streaming atomic.Bool

	mu       sync.Mutex
	tx       *txn.Txn  // open interactive transaction, if any
	reaped   bool      // tx was aborted by the idle reaper
	busy     bool      // a statement is executing inside tx; reaper must wait
	lastStmt time.Time // last statement/txn-control activity

	stmts atomic.Int64
}

func newSession(srv *Server, id int64, conn net.Conn) *session {
	now := time.Now()
	s := &session{id: id, srv: srv, conn: conn, br: bufio.NewReader(conn), openedAt: now, lastStmt: now}
	s.rows.f = &s.io
	return s
}

// trace is the session's causal-span root id. Sessions use the negative of
// their id so rule cascades triggered by a session transaction (whose
// trace root is the positive transaction id) remain distinguishable.
func (s *session) trace() int64 { return -s.id }

func (s *session) run() {
	reg := s.srv.be.Obs()
	defer func() {
		s.mu.Lock()
		if s.tx != nil {
			s.tx.Abort() //nolint:errcheck // disconnect cleanup; locks released regardless
			s.tx = nil
		}
		s.mu.Unlock()
		s.conn.Close() //nolint:errcheck
		s.srv.dropSession(s)
		reg.Tracer().EmitSpan(s.srv.be.Now(), obs.KindSessionClose, s.tenant, s.stmts.Load(), s.trace(), 0)
		s.srv.wg.Done()
	}()

	if !s.handshake() {
		return
	}
	reg.Tracer().EmitSpan(s.srv.be.Now(), obs.KindSessionOpen, s.tenant, s.id, s.trace(), 0)

	for {
		typ, payload, idle, err := s.readFrame()
		if err != nil {
			if idle {
				// Poll tick with no frame begun: during drain an idle session
				// (no transaction to finish) has nothing left to do.
				if s.srv.Draining() && !s.inTxn() {
					return
				}
				continue
			}
			return // disconnect, mid-frame timeout, or fatal read error
		}
		s.srv.m.frames.Inc()
		if !s.dispatch(typ, payload) {
			return
		}
	}
}

// readFrame reads one frame from the buffered connection. The short idle
// deadline applies only until a frame's first byte arrives; after that the
// deadline is extended so a poll tick cannot expire mid-frame and
// desynchronize the stream with a discarded partial read.
//
// idle=true marks a poll-deadline expiry BEFORE any frame byte arrived —
// the only timeout the caller may shrug off and poll again. A timeout from
// ReadFrame is not idle: bytes were already consumed, the stream may be
// desynchronized, and the connection must close.
func (s *session) readFrame() (typ byte, payload []byte, idle bool, err error) {
	s.conn.SetReadDeadline(time.Now().Add(pollInterval)) //nolint:errcheck
	if _, err := s.br.ReadByte(); err != nil {
		ne, ok := err.(net.Error)
		return 0, nil, ok && ne.Timeout(), err
	}
	s.br.UnreadByte()                                    //nolint:errcheck // just read; cannot fail
	s.conn.SetReadDeadline(time.Now().Add(frameTimeout)) //nolint:errcheck
	typ, payload, err = s.io.Read(s.br)
	return typ, payload, false, err
}

// handshake reads HELLO, enforces auth, and answers WELCOME.
func (s *session) handshake() bool {
	s.conn.SetReadDeadline(time.Now().Add(handshakeTimeout)) //nolint:errcheck
	typ, payload, err := s.io.Read(s.br)
	if err != nil || typ != FrameHello {
		s.srv.m.badFrames.Inc()
		s.sendErr(CodeBadRequest, "expected HELLO")
		return false
	}
	token, tenant, maxLag, err := DecodeHelloLag(payload)
	if err != nil {
		s.srv.m.badFrames.Inc()
		s.sendErr(CodeBadRequest, err.Error())
		return false
	}
	if s.srv.cfg.AuthToken != "" && token != s.srv.cfg.AuthToken {
		s.srv.m.authFail.Inc()
		s.sendErr(CodeAuth, "bad token")
		return false
	}
	s.tenant = tenant
	s.maxLagMicros = int64(maxLag)
	return s.send(FrameWelcome, append(s.io.Frame(), EncodeWelcome(s.id)...), 0)
}

func (s *session) inTxn() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tx != nil
}

// dispatch handles one frame; false closes the session.
func (s *session) dispatch(typ byte, payload []byte) bool {
	switch typ {
	case FramePing:
		return s.send(FramePong, s.io.Frame(), 0)
	case FrameBegin:
		return s.handleBegin()
	case FrameCommit:
		return s.handleTxnEnd(true)
	case FrameAbort:
		return s.handleTxnEnd(false)
	case FrameQuery:
		return s.handleSQL(payload, true)
	case FrameExec:
		return s.handleSQL(payload, false)
	case FrameReplStream:
		return s.handleReplStream(payload)
	default:
		s.srv.m.badFrames.Inc()
		// Framing is intact — an unknown type is an application-level
		// error, not a reason to cut the connection.
		return s.sendErr(CodeBadRequest, fmt.Sprintf("unknown frame type 0x%02x", typ))
	}
}

// handleReplStream converts the session into a one-way WAL ship: the
// engine's shipper takes over the connection and streams frames until the
// follower disconnects or the server drains. The frame loop never resumes
// afterwards — a replication stream is the connection's final state.
func (s *session) handleReplStream(payload []byte) bool {
	if s.inTxn() {
		s.sendErr(CodeTxnState, "REPL_STREAM inside a transaction")
		return false
	}
	if s.srv.Draining() {
		s.srv.m.drainRejects.Inc()
		s.sendErr(CodeShuttingDown, "server is draining")
		return false
	}
	streamer := s.srv.be.Repl()
	if streamer == nil {
		s.sendErr(CodeBadRequest, "this server does not ship WAL (no durable log)")
		return false
	}
	fromLSN, epoch, err := DecodeReplStream(payload)
	if err != nil {
		s.srv.m.badFrames.Inc()
		s.sendErr(CodeBadRequest, err.Error())
		return false
	}
	s.streaming.Store(true)
	// The shipper owns pacing from here; clear the poll deadline so it
	// doesn't fire mid-stream.
	s.conn.SetReadDeadline(time.Time{})                          //nolint:errcheck
	streamer.ServeStream(s.conn, fromLSN, epoch, s.srv.closedCh) //nolint:errcheck
	return false
}

func (s *session) handleBegin() bool {
	if s.srv.Draining() {
		s.srv.m.drainRejects.Inc()
		return s.sendErr(CodeShuttingDown, "server is draining")
	}
	if replica, _, _ := s.srv.be.ReplicaInfo(); replica {
		return s.sendErr(CodeReplica, "replica is read-only; interactive transactions must run on the primary")
	}
	s.mu.Lock()
	if s.tx != nil {
		s.mu.Unlock()
		return s.sendErr(CodeTxnState, "transaction already open")
	}
	tx := s.srv.be.Begin()
	tx.SetCause(s.trace(), 0)
	s.tx = tx
	s.reaped = false
	s.lastStmt = time.Now()
	s.mu.Unlock()
	s.srv.m.txnBegins.Inc()
	return s.sendOK(0)
}

func (s *session) handleTxnEnd(commit bool) bool {
	s.mu.Lock()
	tx := s.tx
	reaped := s.reaped
	s.tx = nil
	s.reaped = false
	s.lastStmt = time.Now()
	s.mu.Unlock()
	if tx == nil {
		if reaped {
			return s.sendErr(CodeTxnState, "transaction was reaped after idle timeout")
		}
		return s.sendErr(CodeTxnState, "no open transaction")
	}
	var err error
	if commit {
		err = tx.Commit()
	} else {
		err = tx.Abort()
	}
	if err != nil {
		return s.sendErr(CodeFor(err), err.Error())
	}
	return s.sendOK(0)
}

// handleSQL runs one QUERY (isQuery) or EXEC frame: decode, prepare (a
// statement-cache lookup; a parse only for a statement shape not seen
// before), admit, execute — inside the session transaction when one is
// open, auto-committed otherwise.
func (s *session) handleSQL(payload []byte, isQuery bool) bool {
	sql, err := DecodeSQL(payload)
	if err != nil {
		s.srv.m.badFrames.Inc()
		return s.sendErr(CodeBadRequest, err.Error())
	}
	if s.srv.Draining() {
		s.srv.m.drainRejects.Inc()
		return s.sendErr(CodeShuttingDown, "server is draining")
	}
	stmt, params, err := s.srv.stmts.Prepare(sql)
	if err != nil {
		return s.sendErr(CodeBadRequest, err.Error())
	}
	_, isSelect := stmt.(*sqlparse.SelectStmt)
	if isQuery && !isSelect {
		return s.sendErr(CodeBadRequest, "QUERY frames carry SELECT only; use EXEC")
	}
	if replica, ready, lag := s.srv.be.ReplicaInfo(); replica {
		if !isSelect {
			return s.sendErr(CodeReplica, "replica is read-only; send writes to the primary")
		}
		if !ready {
			return s.sendErr(CodeLagging, "replica is resyncing from the primary; retry")
		}
		if s.maxLagMicros > 0 && lag > s.maxLagMicros {
			s.srv.m.lagRejects.Inc()
			return s.sendErr(CodeLagging,
				fmt.Sprintf("replica lag %dus exceeds the session bound %dus; retry", lag, s.maxLagMicros))
		}
	}

	release, ok := s.srv.admit(s.tenant)
	if !ok {
		return s.sendErr(CodeBusy, "server saturated, retry")
	}
	defer release()
	s.stmts.Add(1)
	start := s.srv.be.Now()

	var n int
	s.rows.head = 0 // no result yet
	s.mu.Lock()
	tx := s.tx
	if tx == nil && s.reaped {
		// The idle reaper aborted this session's transaction. Running the
		// statement auto-committed would durably apply it outside the
		// transaction whose earlier statements were rolled back; the client
		// must see the reap (and re-BEGIN) before any further statement runs.
		s.mu.Unlock()
		return s.sendErr(CodeTxnState, "transaction was reaped after idle timeout")
	}
	if tx != nil {
		// Mark the session busy instead of holding mu across ExecIn (which
		// can block on lock waits): the reaper skips busy sessions, and
		// Sessions()/info() stay responsive during long statements.
		s.busy = true
	}
	s.lastStmt = time.Now()
	s.mu.Unlock()
	if tx != nil {
		n, err = s.srv.be.ExecIn(tx, stmt, params, &s.rows)
		s.mu.Lock()
		s.busy = false
		s.lastStmt = time.Now()
		s.mu.Unlock()
	} else {
		n, err = s.srv.be.Exec(stmt, params, &s.rows)
	}
	if isQuery {
		s.srv.m.queries.Inc()
		s.srv.m.queryMicros.Record(s.srv.be.Now() - start)
	} else {
		s.srv.m.execs.Inc()
	}
	if err != nil {
		return s.sendErr(CodeFor(err), err.Error())
	}
	if s.rows.head > 0 {
		buf, start := s.rows.frame()
		return s.send(FrameRows, buf, start)
	}
	return s.sendOK(n)
}

// reapIfIdle aborts the session's interactive transaction when it has seen
// no activity for timeout, releasing its locks. The session learns at its
// next COMMIT/ABORT (CodeTxnState).
func (s *session) reapIfIdle(now time.Time, timeout time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx == nil || s.busy || now.Sub(s.lastStmt) <= timeout {
		return
	}
	// Count first: an observer that sees the locks gone must see the reap.
	s.srv.m.txnsReaped.Inc()
	s.tx.Abort() //nolint:errcheck
	s.tx = nil
	s.reaped = true
}

func (s *session) info(now time.Time) SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := SessionInfo{
		ID:         s.id,
		Tenant:     s.tenant,
		Remote:     s.conn.RemoteAddr().String(),
		AgeMicros:  now.Sub(s.openedAt).Microseconds(),
		Statements: s.stmts.Load(),
		InTxn:      s.tx != nil,
	}
	if s.tx != nil {
		info.TxnIdleMs = now.Sub(s.lastStmt).Milliseconds()
	}
	return info
}

// send writes the frame buf[start:], built in s.io (see FrameIO.Send).
func (s *session) send(typ byte, buf []byte, start int) bool {
	s.conn.SetWriteDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck
	return s.io.Send(s.conn, typ, buf, start) == nil
}

func (s *session) sendOK(affected int) bool {
	return s.send(FrameOK, append(s.io.Frame(), EncodeOK(affected)...), 0)
}

func (s *session) sendErr(code Code, msg string) bool {
	return s.send(FrameErr, append(s.io.Frame(), EncodeErr(code, msg)...), 0)
}
