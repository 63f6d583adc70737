package server

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"slices"
	"testing"
	"time"

	"github.com/stripdb/strip/internal/types"
)

// FuzzDecode throws arbitrary bytes at every payload decoder. None may
// panic or over-allocate; errors are the only acceptable failure mode.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeHello("tok", "tenant"))
	f.Add(EncodeSQL("select * from stocks"))
	f.Add(EncodeRows([]string{"a", "b"}, nil))
	f.Add(EncodeErr(CodeBusy, "busy"))
	f.Add(EncodeWelcome(42))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeHelloLag(data) //nolint:errcheck
		DecodeWelcome(data)  //nolint:errcheck
		DecodeSQL(data)      //nolint:errcheck
		DecodeRows(data)     //nolint:errcheck
		DecodeOK(data)       //nolint:errcheck
		DecodeErr(data)      //nolint:errcheck
	})
}

// FuzzRowsRoundTrip: whatever DecodeRows accepts comes back from a second
// round trip value for value under ==, and re-encodes byte-identically (the
// codec has one canonical form). A FLOAT's bits decode through types.Float,
// so a −0 or a NaN of any payload arrives as the one zero and the one NaN.
func FuzzRowsRoundTrip(f *testing.F) {
	f.Add(EncodeRows([]string{"sym", "price"}, nil))
	f.Add(EncodeRows([]string{"x"}, [][]types.Value{{types.Float(0)}, {types.Float(math.NaN())}, {types.Float(math.Inf(-1))}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		cols, rows, err := DecodeRows(data)
		if err != nil {
			return
		}
		re := EncodeRows(cols, rows)
		cols2, rows2, err := DecodeRows(re)
		if err != nil {
			t.Fatalf("re-encoded rows failed to decode: %v", err)
		}
		if len(cols2) != len(cols) || len(rows2) != len(rows) {
			t.Fatalf("round trip changed shape: %d/%d cols, %d/%d rows",
				len(cols), len(cols2), len(rows), len(rows2))
		}
		for i := range rows {
			if !slices.Equal(rows[i], rows2[i]) {
				t.Fatalf("row %d: %v came back as %v", i, rows[i], rows2[i])
			}
		}
		if again := EncodeRows(cols2, rows2); !slices.Equal(again, re) {
			t.Fatalf("re-encoding is not a fixed point:\n%x\n%x", re, again)
		}
	})
}

// TestDecodeRowsHostileCounts: a tiny ROWS frame claiming huge column/row
// counts must be rejected before the counts drive any allocation.
func TestDecodeRowsHostileCounts(t *testing.T) {
	hostileCols := binary.AppendUvarint(nil, 1<<20) // 1M columns, no bytes behind them
	if _, _, err := DecodeRows(hostileCols); err == nil {
		t.Fatal("absurd column count accepted")
	}
	hostileRows := binary.AppendUvarint(nil, 1)
	hostileRows = appendStr(hostileRows, "a")
	hostileRows = binary.AppendUvarint(hostileRows, 1<<30) // 1G rows, empty payload
	if _, _, err := DecodeRows(hostileRows); err == nil {
		t.Fatal("absurd row count accepted")
	}
}

// TestRowsRoundTripAcrossSlabs: a result larger than one decode slab comes
// back value for value, and no row can grow into its neighbour's slots.
func TestRowsRoundTripAcrossSlabs(t *testing.T) {
	cols := []string{"symbol", "price", "ratio", "at", "note"}
	rows := make([][]types.Value, 2*decodeSlabVals/len(cols)+7)
	for i := range rows {
		rows[i] = []types.Value{
			types.Str(fmt.Sprintf("S%04d", i)), types.Int(int64(i) - 3),
			types.Float(float64(i) / 8), types.Time(int64(i) * 1000), types.Null(),
		}
	}
	gotCols, got, err := DecodeRows(EncodeRows(cols, rows))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotCols, cols) || len(got) != len(rows) {
		t.Fatalf("decoded %d cols, %d rows; want %d, %d", len(gotCols), len(got), len(cols), len(rows))
	}
	for i := range rows {
		if !slices.Equal(got[i], rows[i]) {
			t.Fatalf("row %d = %v, want %v", i, got[i], rows[i])
		}
	}
	_ = append(got[0], types.Str("spill"))
	if !slices.Equal(got[1], rows[1]) {
		t.Errorf("appending to row 0 overwrote row 1: %v", got[1])
	}
}

// TestServerGarbageFrames feeds a live server hostile byte streams — bad
// magic, absurd lengths, truncated frames, random junk after a valid
// handshake — and then proves the server still serves a clean session.
func TestServerGarbageFrames(t *testing.T) {
	srv, be, _ := serverEnv(t, Config{})

	hostile := [][]byte{
		[]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"),        // port scanner / wrong protocol
		{0x00, 0x00, 0x00, 0x00},                           // zero-length frame
		{0xff, 0xff, 0xff, 0xff, 0x01},                     // absurd length
		{0x00, 0x00, 0x00, 0x05, 0x01},                     // length promises more than sent
		{0x00, 0x00, 0x00, 0x02, 0x7f, 0x00},               // unknown type pre-handshake
		append(make([]byte, 4), make([]byte, MaxFrame)...), // huge body, bogus header
	}
	for i, raw := range hostile {
		conn, err := net.DialTimeout("tcp", srv.Addr(), 2*time.Second)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		conn.Write(raw) //nolint:errcheck
		// Drain whatever the server says until it hangs up; we only care
		// that it neither crashes nor wedges.
		conn.SetReadDeadline(time.Now().Add(time.Second)) //nolint:errcheck
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				break
			}
		}
		conn.Close()
	}

	// Garbage after a valid handshake: unknown frame types get a typed
	// error and the session survives framing-intact junk.
	conn := dialHello(t, srv.Addr(), "", "")
	typ, p := roundTrip(t, conn, 0x55, []byte{1, 2, 3})
	wantErrCode(t, typ, p, CodeBadRequest)
	// Malformed QUERY payload (truncated string).
	bad := binary.AppendUvarint(nil, 1000)
	typ, p = roundTrip(t, conn, FrameQuery, bad)
	wantErrCode(t, typ, p, CodeBadRequest)
	// Unparsable SQL.
	typ, p = roundTrip(t, conn, FrameQuery, EncodeSQL("selectt * frm stocks"))
	wantErrCode(t, typ, p, CodeBadRequest)
	conn.Close()

	if be.Obs().Counter("server.bad_frames").Load() == 0 {
		t.Error("bad-frame counter never moved")
	}

	// The server is still healthy.
	clean := dialHello(t, srv.Addr(), "", "")
	defer clean.Close()
	typ, p = roundTrip(t, clean, FrameQuery, EncodeSQL("select * from stocks"))
	if typ != FrameRows {
		t.Fatalf("post-garbage query answered 0x%02x: %s", typ, p)
	}
	if _, rows, err := DecodeRows(p); err != nil || len(rows) != 3 {
		t.Fatalf("post-garbage rows=%d err=%v", len(rows), err)
	}
}
