// Package client is the Go client for stripd, the strip network server.
// It speaks the length-prefixed binary protocol from internal/server: one
// TCP connection per Client, a HELLO/WELCOME handshake carrying the auth
// token and tenant, then synchronous request/response frames.
//
// Errors decode to the same sentinels the embedded engine returns, so
// errors.Is(err, strip.ErrDeadlock) and strip.IsRetryable(err) behave
// identically for remote and embedded callers. Busy-shed requests (the
// server's admission control returning a retryable busy code) are retried
// transparently under a jittered backoff, so a herd of shed clients spreads
// out instead of re-stampeding a saturated server.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/stripdb/strip/internal/retry"
	"github.com/stripdb/strip/internal/server"
	"github.com/stripdb/strip/internal/types"
)

// Value is a column value (re-exported from the engine's type system).
type Value = types.Value

// Result is one statement's outcome: Columns/Rows for selects, Affected
// for DML.
type Result struct {
	Columns  []string
	Rows     [][]Value
	Affected int
}

// Options tunes Dial.
type Options struct {
	// Token is the auth token (must match the server's, when set there).
	Token string
	// Tenant names the client's tenant for per-tenant admission control.
	Tenant string
	// DialTimeout bounds the TCP connect + handshake. Default 5s.
	DialTimeout time.Duration
	// CallTimeout bounds one request/response round trip. Default 30s.
	CallTimeout time.Duration
	// BusyRetries is how many times a busy-shed statement is retried before
	// the busy error surfaces. Default 4; negative disables retry. Retry n
	// waits a jittered 25–50 ms doubled n-1 times.
	BusyRetries int
	// MaxLag bounds replica staleness: when connecting to a replica, reads
	// are refused with a retryable ErrLagging while the replica's
	// replication lag exceeds this. Zero accepts any lag. Ignored by
	// primaries.
	MaxLag time.Duration
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 30 * time.Second
	}
	if o.BusyRetries == 0 {
		o.BusyRetries = 4
	}
	if o.BusyRetries < 0 {
		o.BusyRetries = 0
	}
	return o
}

// Client is one stripd connection. Methods are safe for concurrent use;
// requests serialize on the connection.
type Client struct {
	opts      Options
	sessionID int64

	mu   sync.Mutex
	conn net.Conn
	// br buffers conn's reads: a reply's length header and body arrive in
	// one read(2), not two.
	br   *bufio.Reader
	io   server.FrameIO // frame buffers, reused from call to call
	busy retry.Policy   // paces busy-shed retries
}

// Dial connects to a stripd server and completes the handshake.
func Dial(addr string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return handshake(conn, opts)
}

// handshake completes HELLO/WELCOME on a fresh connection and wraps it in a
// Client; on failure the connection is closed.
func handshake(conn net.Conn, opts Options) (*Client, error) {
	hello := server.EncodeHello(opts.Token, opts.Tenant)
	if opts.MaxLag > 0 {
		hello = server.EncodeHelloLag(opts.Token, opts.Tenant, uint64(opts.MaxLag.Microseconds()))
	}
	conn.SetDeadline(time.Now().Add(opts.DialTimeout)) //nolint:errcheck
	if err := server.WriteFrame(conn, server.FrameHello, hello); err != nil {
		conn.Close() //nolint:errcheck
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	br := bufio.NewReader(conn)
	typ, payload, err := server.ReadFrame(br)
	if err != nil {
		conn.Close() //nolint:errcheck
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	if typ == server.FrameErr {
		conn.Close() //nolint:errcheck
		code, msg, derr := server.DecodeErr(payload)
		if derr != nil {
			return nil, fmt.Errorf("client: handshake refused: %w", derr)
		}
		return nil, server.DecodeError(code, msg)
	}
	if typ != server.FrameWelcome {
		conn.Close() //nolint:errcheck
		return nil, fmt.Errorf("client: unexpected handshake frame 0x%02x", typ)
	}
	sid, err := server.DecodeWelcome(payload)
	if err != nil {
		conn.Close() //nolint:errcheck
		return nil, err
	}
	conn.SetDeadline(time.Time{}) //nolint:errcheck
	return &Client{
		opts:      opts,
		sessionID: sid,
		conn:      conn,
		br:        br,
		busy:      retry.Policy{Base: 50 * time.Millisecond, Max: time.Second, Retries: opts.BusyRetries},
	}, nil
}

// SessionID reports the server-assigned session id.
func (c *Client) SessionID() int64 { return c.sessionID }

// Close closes the connection. An open transaction is aborted server-side.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// do runs one round trip: a QUERY or EXEC frame carries sql, any other
// frame is bodyless. The reply is decoded here, under the lock, because its
// bytes are the connection's buffer; an ERR reply becomes its typed error.
func (c *Client) do(typ byte, sql string) (*Result, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil, fmt.Errorf("client: connection closed")
	}
	c.conn.SetDeadline(time.Now().Add(c.opts.CallTimeout)) //nolint:errcheck
	isSQL := typ == server.FrameQuery || typ == server.FrameExec
	b := c.io.Frame()
	if isSQL {
		b = server.AppendSQL(b, sql)
	}
	if err := c.io.Send(c.conn, typ, b, 0); err != nil {
		return nil, err
	}
	rt, rp, err := c.io.Read(c.br)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	switch {
	case rt == server.FrameErr:
		code, msg, derr := server.DecodeErr(rp)
		if err = derr; err == nil {
			err = server.DecodeError(code, msg)
		}
	case rt == server.FrameRows && isSQL:
		res.Columns, res.Rows, err = server.DecodeRows(rp)
	case rt == server.FrameOK:
		res.Affected, err = server.DecodeOK(rp)
	case rt != server.FramePong || isSQL:
		err = fmt.Errorf("client: unexpected response frame 0x%02x", rt)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// call runs one round trip, retrying busy sheds under c.busy.
func (c *Client) call(typ byte, sql string) (res *Result, err error) {
	err = c.busy.Do(isBusy, func() (err error) {
		res, err = c.do(typ, sql)
		return err
	})
	return res, err
}

func isBusy(err error) bool { return errors.Is(err, server.ErrBusy) }

// Query runs one SELECT — inside the session transaction when one is open,
// otherwise in a read-only transaction of its own.
func (c *Client) Query(sql string) (*Result, error) { return c.call(server.FrameQuery, sql) }

// Exec runs one statement (DDL, DML, or SELECT) — inside the session
// transaction when one is open, auto-committed otherwise.
func (c *Client) Exec(sql string) (*Result, error) { return c.call(server.FrameExec, sql) }

// control runs one bodyless transaction-control or ping frame.
func (c *Client) control(typ byte) error {
	_, err := c.call(typ, "")
	return err
}

// Begin opens the session's interactive transaction.
func (c *Client) Begin() error { return c.control(server.FrameBegin) }

// Commit commits it.
func (c *Client) Commit() error { return c.control(server.FrameCommit) }

// Abort aborts it.
func (c *Client) Abort() error { return c.control(server.FrameAbort) }

// Ping checks liveness.
func (c *Client) Ping() error { return c.control(server.FramePing) }
