package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/stripdb/strip/internal/obs"
	"github.com/stripdb/strip/internal/query"
	"github.com/stripdb/strip/internal/sqlparse"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

// Backend is what the server needs from the engine. The root strip package
// implements it over *strip.DB (see strip's serve wiring); keeping it an
// interface here avoids an import cycle and keeps the server testable
// against a fake.
type Backend interface {
	// Begin opens an interactive (locking) transaction.
	Begin() *txn.Txn
	// Statements is the engine's statement cache. The session prepares
	// every frame's text through it — which parses only a statement shape
	// it has not seen — to classify the frame, and hands the backend the
	// prepared statement with its parameters; the backend never sees text.
	Statements() *sqlparse.Cache
	// Exec runs one auto-committed prepared statement. A SELECT or EXPLAIN
	// hands its rows to rows; any other statement reports how many rows it
	// changed.
	Exec(stmt sqlparse.Stmt, params []types.Value, rows query.RowSink) (int, error)
	// ExecIn runs one prepared statement inside tx, as Exec does.
	ExecIn(tx *txn.Txn, stmt sqlparse.Stmt, params []types.Value, rows query.RowSink) (int, error)
	// Obs is the engine's metrics registry (server.* lands here).
	Obs() *obs.Registry
	// Now is engine time in microseconds, for metrics and trace events.
	Now() int64
	// Saturated reports whether the engine's overload machinery considers
	// the scheduler saturated; admission control sheds new work while true.
	Saturated() bool
	// Repl returns the engine's WAL-stream server, or nil when this engine
	// cannot ship WAL (no durable log).
	Repl() ReplStreamer
	// ReplicaInfo reports whether the engine is a read-only replica,
	// whether it can serve reads right now (false mid-resync), and its
	// replication lag in wall-clock microseconds.
	ReplicaInfo() (replica, ready bool, lagMicros int64)
}

// ReplStreamer serves one follower's WAL-shipping stream over conn,
// blocking until the stream ends or stop closes. Implemented by
// internal/repl.Shipper; an interface here keeps the dependency pointing
// from repl to server.
type ReplStreamer interface {
	ServeStream(conn net.Conn, fromLSN, epoch uint64, stop <-chan struct{}) error
}

// Config tunes one Server.
type Config struct {
	// Addr is the listen address (host:port; port 0 picks a free port).
	Addr string
	// AuthToken, when non-empty, must match every HELLO's token.
	AuthToken string
	// MaxConns caps concurrent sessions; excess connections are turned away
	// with a retryable busy error. Default 256.
	MaxConns int
	// MaxInflight caps concurrently executing statements across all
	// sessions. Default 64.
	MaxInflight int
	// TenantInflight caps concurrently executing statements per tenant.
	// Default: MaxInflight (no per-tenant carve-up).
	TenantInflight int
	// IdleTxnTimeout reaps interactive transactions with no statement
	// activity, aborting them so abandoned sessions release locks.
	// Default 30s.
	IdleTxnTimeout time.Duration
	// SessionLifetime bounds a session's total age; 0 = unbounded.
	SessionLifetime time.Duration
	// DrainTimeout bounds Close: sessions keep their connections long
	// enough to COMMIT/ABORT in-flight transactions, then are cut.
	// Default 5s.
	DrainTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxConns <= 0 {
		c.MaxConns = 256
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.TenantInflight <= 0 {
		c.TenantInflight = c.MaxInflight
	}
	if c.IdleTxnTimeout <= 0 {
		c.IdleTxnTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Second
	}
	return c
}

// metrics are the server's instruments, resolved once at Start: a request
// never looks one up by name.
type metrics struct {
	conns, busy, frames, badFrames, authFail, drainRejects *obs.Counter
	txnBegins, txnsReaped, queries, execs, lagRejects      *obs.Counter
	active                                                 *obs.Gauge
	queryMicros                                            *obs.Histogram
}

func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		conns:        reg.Counter(obs.MServerConns),
		busy:         reg.Counter(obs.MServerBusy),
		frames:       reg.Counter(obs.MServerFrames),
		badFrames:    reg.Counter(obs.MServerBadFrames),
		authFail:     reg.Counter(obs.MServerAuthFail),
		drainRejects: reg.Counter(obs.MServerDrainRejects),
		txnBegins:    reg.Counter(obs.MServerTxnBegins),
		txnsReaped:   reg.Counter(obs.MServerTxnsReaped),
		queries:      reg.Counter(obs.MServerQueries),
		execs:        reg.Counter(obs.MServerExecs),
		lagRejects:   reg.Counter(obs.MReplLagRejects),
		active:       reg.Gauge(obs.MServerActive),
		queryMicros:  reg.Histogram(obs.MServerQueryMicros),
	}
}

// Server is a running stripd listener.
type Server struct {
	cfg   Config
	be    Backend
	stmts *sqlparse.Cache
	m     metrics
	ln    net.Listener

	mu       sync.Mutex
	sessions map[int64]*session
	tenants  map[string]int // in-flight statements per tenant
	nextID   int64
	inflight int

	draining atomic.Bool
	closedCh chan struct{} // closed when Close begins, wakes pollers
	wg       sync.WaitGroup
	closeMu  sync.Mutex
	closed   bool
}

// Start binds cfg.Addr and serves the strip wire protocol over be.
func Start(cfg Config, be Backend) (*Server, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		cfg:      cfg,
		be:       be,
		stmts:    be.Statements(),
		m:        newMetrics(be.Obs()),
		ln:       ln,
		sessions: make(map[int64]*session),
		tenants:  make(map[string]int),
		closedCh: make(chan struct{}),
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.reapLoop()
	return s, nil
}

// Addr returns the bound listen address (resolves ":0" ports).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Draining reports whether Close has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close drains the server: the listener stops, new work frames are
// rejected with CodeShuttingDown, sessions get DrainTimeout to COMMIT or
// ABORT in-flight transactions, and whatever remains open afterwards is
// aborted so no locks leak.
func (s *Server) Close() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.draining.Store(true)
	close(s.closedCh)
	s.ln.Close() //nolint:errcheck

	deadline := time.Now().Add(s.cfg.DrainTimeout)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		n := len(s.sessions)
		s.mu.Unlock()
		if n == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Cut stragglers: closing the conn unblocks their read loop; each
	// session's cleanup aborts any transaction still open.
	s.mu.Lock()
	for _, sess := range s.sessions {
		sess.conn.Close() //nolint:errcheck
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.m.conns.Inc()
		if s.draining.Load() {
			s.refuse(conn, CodeShuttingDown, "server is shutting down")
			continue
		}
		s.mu.Lock()
		if len(s.sessions) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.m.busy.Inc()
			s.refuse(conn, CodeBusy, "connection limit reached")
			continue
		}
		s.nextID++
		sess := newSession(s, s.nextID, conn)
		s.sessions[sess.id] = sess
		s.mu.Unlock()
		s.m.active.Set(int64(s.sessionCount()))
		s.wg.Add(1)
		go sess.run()
	}
}

// refuse answers a connection the server will not serve with one ERR frame
// and closes it.
func (s *Server) refuse(conn net.Conn, code Code, msg string) {
	conn.SetWriteDeadline(time.Now().Add(time.Second)) //nolint:errcheck
	WriteFrame(conn, FrameErr, EncodeErr(code, msg))   //nolint:errcheck
	conn.Close()                                       //nolint:errcheck
}

func (s *Server) sessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

func (s *Server) dropSession(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	s.m.active.Set(int64(s.sessionCount()))
}

// admit charges one executing statement against the global and per-tenant
// in-flight limits and the engine's own saturation signal. The returned
// release must be called when the statement finishes; ok=false means the
// request was shed (retryable busy).
func (s *Server) admit(tenant string) (release func(), ok bool) {
	if s.be.Saturated() {
		s.m.busy.Inc()
		return nil, false
	}
	s.mu.Lock()
	if s.inflight >= s.cfg.MaxInflight || s.tenants[tenant] >= s.cfg.TenantInflight {
		s.mu.Unlock()
		s.m.busy.Inc()
		return nil, false
	}
	s.inflight++
	s.tenants[tenant]++
	s.mu.Unlock()
	return func() {
		s.mu.Lock()
		s.inflight--
		s.tenants[tenant]--
		if s.tenants[tenant] <= 0 {
			delete(s.tenants, tenant)
		}
		s.mu.Unlock()
	}, true
}

// reapLoop walks sessions every 100ms aborting idle interactive
// transactions (releasing their locks) and closing sessions past their
// lifetime. Abandoned clients therefore cannot pin locks forever.
func (s *Server) reapLoop() {
	defer s.wg.Done()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.closedCh:
			return
		case <-tick.C:
		}
		now := time.Now()
		s.mu.Lock()
		sessions := make([]*session, 0, len(s.sessions))
		for _, sess := range s.sessions {
			sessions = append(sessions, sess)
		}
		s.mu.Unlock()
		for _, sess := range sessions {
			sess.reapIfIdle(now, s.cfg.IdleTxnTimeout)
			// Replication streams are long-lived by design; the session
			// lifetime cap applies to interactive sessions only.
			if s.cfg.SessionLifetime > 0 && !sess.streaming.Load() && now.Sub(sess.openedAt) > s.cfg.SessionLifetime {
				sess.conn.Close() //nolint:errcheck
			}
		}
	}
}

// SessionInfo is one session's /debug/sessions entry.
type SessionInfo struct {
	ID         int64  `json:"id"`
	Tenant     string `json:"tenant,omitempty"`
	Remote     string `json:"remote"`
	AgeMicros  int64  `json:"age_micros"`
	Statements int64  `json:"statements"`
	InTxn      bool   `json:"in_txn"`
	TxnIdleMs  int64  `json:"txn_idle_ms,omitempty"`
}

// Sessions snapshots every live session, ordered by id. The session list
// is copied under srv.mu but each session's info is gathered after
// releasing it, so a scrape never stalls admit/accept/drop behind one
// slow session mutex.
func (s *Server) Sessions() []SessionInfo {
	now := time.Now()
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	out := make([]SessionInfo, 0, len(sessions))
	for _, sess := range sessions {
		out = append(out, sess.info(now))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SessionsHandler serves the session table as JSON, for mounting at
// stripmon's /debug/sessions.
func (s *Server) SessionsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]any{ //nolint:errcheck
			"draining": s.draining.Load(),
			"sessions": s.Sessions(),
		})
	})
}
