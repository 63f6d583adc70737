package client

import (
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
	c, err := handshake(conn, "pipe", Options{}.withDefaults())
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
