package client

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"

	"github.com/stripdb/strip/internal/server"
)

// countingConn counts the Read calls that reach the connection.
type countingConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// A small reply — length header and body sent as one write — costs the
// client one read of the connection, not one for the header and one for the
// body.
func TestReplyCostsOneRead(t *testing.T) {
	near, far := net.Pipe()
	defer far.Close()
	go func() { // a stripd that welcomes, then answers every frame with PONG
		reply := byte(server.FrameWelcome)
		payload := server.EncodeWelcome(7)
		for {
			if _, _, err := server.ReadFrame(far); err != nil {
				return
			}
			if err := server.WriteFrame(far, reply, payload); err != nil {
				return
			}
			reply, payload = server.FramePong, nil
		}
	}()
	conn := &countingConn{Conn: near}
	c, err := handshake(conn, Options{}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close() //nolint:errcheck
	if c.SessionID() != 7 {
		t.Fatalf("session id %d, want 7", c.SessionID())
	}
	for i := 0; i < 3; i++ {
		before := conn.reads.Load()
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		if got := conn.reads.Load() - before; got != 1 {
			t.Fatalf("ping %d: reply took %d reads of the connection, want 1", i, got)
		}
	}
}

// A busy-shed request is sent again until it is served or BusyRetries runs
// out; the last busy error then surfaces.
func TestBusyRetry(t *testing.T) {
	for _, tc := range []struct {
		retries, busy, wantSends int
		wantBusy                 bool
	}{
		{retries: 0, busy: 2, wantSends: 3},
		{retries: 1, busy: 2, wantSends: 2, wantBusy: true},
		{retries: -1, busy: 1, wantSends: 1, wantBusy: true},
	} {
		near, far := net.Pipe()
		var sends atomic.Int64
		go func() { // a stripd that sheds the first tc.busy requests
			if _, _, err := server.ReadFrame(far); err != nil {
				return
			}
			if err := server.WriteFrame(far, server.FrameWelcome, server.EncodeWelcome(1)); err != nil {
				return
			}
			for {
				if _, _, err := server.ReadFrame(far); err != nil {
					return
				}
				reply, payload := byte(server.FramePong), []byte(nil)
				if sends.Add(1) <= int64(tc.busy) {
					reply, payload = server.FrameErr, server.EncodeErr(server.CodeBusy, "busy")
				}
				if err := server.WriteFrame(far, reply, payload); err != nil {
					return
				}
			}
		}()
		c, err := handshake(near, Options{BusyRetries: tc.retries}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		err = c.Ping()
		c.Close() //nolint:errcheck
		far.Close()
		if got := sends.Load(); got != int64(tc.wantSends) || errors.Is(err, server.ErrBusy) != tc.wantBusy {
			t.Errorf("BusyRetries %d, %d sheds: %d sends, err %v; want %d sends, busy %v",
				tc.retries, tc.busy, got, err, tc.wantSends, tc.wantBusy)
		}
	}
}
