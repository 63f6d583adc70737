package strip

import (
	"fmt"
	"time"

	"github.com/stripdb/strip/internal/obs"
	"github.com/stripdb/strip/internal/query"
	"github.com/stripdb/strip/internal/server"
	"github.com/stripdb/strip/internal/sqlparse"
	"github.com/stripdb/strip/internal/txn"
)

// ServeOptions tunes the stripd network listener started by
// Config.ListenAddr. The zero value serves unauthenticated with the
// defaults documented on each field.
type ServeOptions struct {
	// AuthToken, when non-empty, must be presented by every client
	// handshake.
	AuthToken string
	// MaxConns caps concurrent sessions (default 256); excess connections
	// are turned away with a retryable busy error.
	MaxConns int
	// MaxInflight caps concurrently executing statements across all
	// sessions (default 64).
	MaxInflight int
	// TenantInflight caps concurrently executing statements per tenant
	// (default: MaxInflight).
	TenantInflight int
	// IdleTxnTimeout aborts interactive transactions with no statement
	// activity, so abandoned sessions release their locks (default 30s).
	IdleTxnTimeout time.Duration
	// SessionLifetime bounds a session's total age; 0 = unbounded.
	SessionLifetime time.Duration
	// DrainTimeout bounds Close's session drain (default 5s).
	DrainTimeout time.Duration
}

// dbBackend adapts *DB to the server's Backend interface.
type dbBackend struct{ db *DB }

func (b dbBackend) Begin() *txn.Txn    { return b.db.Begin() }
func (b dbBackend) Obs() *obs.Registry { return b.db.obs }
func (b dbBackend) Now() int64         { return b.db.clk.Now() }

func (b dbBackend) Statements() *sqlparse.Cache { return b.db.stmts }

func (b dbBackend) Exec(stmt sqlparse.Stmt, params []Value, rows query.RowSink) (int, error) {
	return b.db.execStmt(stmt, params, rows)
}

func (b dbBackend) ExecIn(tx *txn.Txn, stmt sqlparse.Stmt, params []Value, rows query.RowSink) (int, error) {
	return execStmtIn(tx, stmt, params, rows)
}

// Saturated rides the engine's overload machinery: when overload control
// is configured (Overload.ShedDepth), a ready queue at or past the shed
// depth makes admission control shed new network work with the same
// retryable busy semantics the scheduler applies to rule recomputes.
func (b dbBackend) Saturated() bool {
	depth := b.db.cfg.Overload.ShedDepth
	if depth <= 0 {
		return false
	}
	ready, _ := b.db.sched.Pending()
	return ready >= depth
}

// Repl exposes the primary's WAL shipper to the session layer. A typed-nil
// guard matters here: returning a nil *repl.Shipper inside the interface
// would read as non-nil to the server.
func (b dbBackend) Repl() server.ReplStreamer {
	if b.db.shipper == nil {
		return nil
	}
	return b.db.shipper
}

// ReplicaInfo reports replica mode for session-layer read gating.
func (b dbBackend) ReplicaInfo() (replica, ready bool, lagMicros int64) {
	// Gate on the replica flag, not the follower pointer: after Promote the
	// follower object survives (fenced, closed) but the engine is writable.
	if !b.db.replica.Load() {
		return false, false, 0
	}
	f := b.db.follower
	if f == nil {
		return false, false, 0
	}
	return true, !f.Resyncing(), f.LagMicros()
}

// startServer binds Config.ListenAddr and mounts /debug/sessions on
// stripmon when monitoring is enabled.
func (db *DB) startServer() error {
	srv, err := server.Start(server.Config{
		Addr:            db.cfg.ListenAddr,
		AuthToken:       db.cfg.Serve.AuthToken,
		MaxConns:        db.cfg.Serve.MaxConns,
		MaxInflight:     db.cfg.Serve.MaxInflight,
		TenantInflight:  db.cfg.Serve.TenantInflight,
		IdleTxnTimeout:  db.cfg.Serve.IdleTxnTimeout,
		SessionLifetime: db.cfg.Serve.SessionLifetime,
		DrainTimeout:    db.cfg.Serve.DrainTimeout,
	}, dbBackend{db})
	if err != nil {
		return fmt.Errorf("strip: %w", err)
	}
	db.server = srv
	if db.mon != nil {
		db.mon.Handle("/debug/sessions", srv.SessionsHandler())
	}
	return nil
}

// ServerAddr returns the stripd listener's bound address (useful with
// Config.ListenAddr ":0"), or "" when serving is disabled.
func (db *DB) ServerAddr() string {
	if db.server == nil {
		return ""
	}
	return db.server.Addr()
}

// ServerSessions snapshots the live network sessions (also exported at
// stripmon's /debug/sessions).
func (db *DB) ServerSessions() []server.SessionInfo {
	if db.server == nil {
		return nil
	}
	return db.server.Sessions()
}
