// Package server is stripd: the network serving subsystem. It speaks a
// length-prefixed binary protocol over TCP, gives every connection a
// session with its own interactive transaction, and admission-controls
// work before it reaches the engine.
//
// The wire format is deliberately minimal — four-byte big-endian length,
// one type byte, then a type-specific payload of uvarint-framed fields —
// so a client fits in a few hundred lines and a fuzzer can reach every
// decode path. Typed error codes travel with every failure so clients can
// classify (and retry) without string matching: decoding an ERR frame
// yields an error that errors.Is-matches the same sentinels the embedded
// engine returns.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"github.com/stripdb/strip/internal/lock"
	"github.com/stripdb/strip/internal/sched"
	"github.com/stripdb/strip/internal/txn"
	"github.com/stripdb/strip/internal/types"
)

// ProtoVersion is the wire protocol version carried in HELLO/WELCOME.
const ProtoVersion = 1

// MaxFrame bounds one frame's body (type byte + payload). Oversized
// frames — hostile or corrupt — are rejected before allocation.
const MaxFrame = 4 << 20

// protoMagic opens every HELLO payload, so a stray HTTP request or port
// scanner fails the handshake immediately instead of being parsed.
const protoMagic = "STRP"

// Frame types. Client-to-server frames have the high bit clear,
// server-to-client frames have it set.
const (
	FrameHello  byte = 0x01 // magic, version, auth token, tenant
	FrameQuery  byte = 0x02 // sql SELECT (auto-commit read)
	FrameExec   byte = 0x03 // sql statement (auto-commit, or in-txn after BEGIN)
	FrameBegin  byte = 0x04 // open the session's interactive transaction
	FrameCommit byte = 0x05 // commit it
	FrameAbort  byte = 0x06 // abort it
	FramePing   byte = 0x07 // liveness probe

	// FrameReplStream converts the connection into a WAL-shipping stream: a
	// follower sends its last applied LSN and fencing epoch; the server
	// answers with REPL_HDR, then (on resync) REPL_SNAP chunks, then a
	// continuous sequence of REPL_BATCH frames until either side closes.
	FrameReplStream byte = 0x08

	FrameWelcome byte = 0x81 // version, session id
	FrameRows    byte = 0x82 // column names + value rows
	FrameOK      byte = 0x83 // affected-row count
	FrameErr     byte = 0x84 // code + message
	FramePong    byte = 0x85

	FrameReplHdr   byte = 0x86 // epoch, snapshot LSN, primary last LSN, resync flag
	FrameReplSnap  byte = 0x87 // one chunk of checkpoint bytes (resync only)
	FrameReplBatch byte = 0x88 // primary last LSN, wall clock, raw WAL frames (empty = heartbeat)
)

// Code classifies an ERR frame so clients can branch (and retry) without
// parsing messages.
type Code uint8

// Wire error codes. CodeFor maps engine errors onto these; WireError.Unwrap
// maps them back to the same sentinels, so errors.Is works end to end.
const (
	CodeOK           Code = 0
	CodeAuth         Code = 1  // handshake rejected (bad token)
	CodeBusy         Code = 2  // admission control shed the request; retryable
	CodeDeadlock     Code = 3  // transaction chosen as deadlock victim; retryable
	CodeWaitTimeout  Code = 4  // lock wait exceeded the cap; retryable
	CodeReadOnly     Code = 5  // write inside a read-only transaction
	CodeShuttingDown Code = 6  // server is draining; reconnect elsewhere/later
	CodeTxnState     Code = 7  // BEGIN inside a txn, COMMIT outside one, or txn reaped
	CodeBadRequest   Code = 8  // malformed frame, unparsable SQL, protocol misuse
	CodeInternal     Code = 9  // everything else
	CodeTooLarge     Code = 10 // result exceeds MaxFrame; narrow the query
	CodeReplica      Code = 11 // write sent to a read-only replica; redirect to the primary
	CodeLagging      Code = 12 // replica lag exceeds the session's MaxLag; retryable
	CodeFenced       Code = 13 // replication request from a fenced (stale-epoch) peer
)

// String names the code.
func (c Code) String() string {
	switch c {
	case CodeOK:
		return "ok"
	case CodeAuth:
		return "auth"
	case CodeBusy:
		return "busy"
	case CodeDeadlock:
		return "deadlock"
	case CodeWaitTimeout:
		return "wait-timeout"
	case CodeReadOnly:
		return "read-only"
	case CodeShuttingDown:
		return "shutting-down"
	case CodeTxnState:
		return "txn-state"
	case CodeBadRequest:
		return "bad-request"
	case CodeTooLarge:
		return "too-large"
	case CodeReplica:
		return "replica"
	case CodeLagging:
		return "lagging"
	case CodeFenced:
		return "fenced"
	default:
		return "internal"
	}
}

// Typed server errors, for errors.Is both in-process and (via WireError)
// across the wire.
var (
	// ErrBusy marks a request shed by admission control — connection cap,
	// in-flight limit, or engine saturation. It is retryable after backoff.
	ErrBusy = errors.New("server: busy, retry later")
	// ErrAuth marks a rejected handshake.
	ErrAuth = errors.New("server: authentication rejected")
	// ErrTxnState marks a transaction-control frame in the wrong state.
	ErrTxnState = errors.New("server: transaction state error")
	// ErrTooLarge marks a result set that does not fit one wire frame; the
	// query succeeded but must be narrowed (e.g. with LIMIT) to be served.
	ErrTooLarge = errors.New("server: result too large for one frame")
	// ErrReplica marks a write (or interactive transaction) sent to a
	// read-only replica; the client should redirect to the primary.
	ErrReplica = errors.New("server: replica is read-only, redirect writes to the primary")
	// ErrLagging marks a read rejected because replication lag exceeded the
	// session's MaxLag bound. It is retryable: the replica is catching up.
	ErrLagging = errors.New("server: replica lag exceeds the session's bound, retry")
	// ErrFenced marks a replication request carrying a stale fencing epoch —
	// the peer was promoted past, and must resync or step down.
	ErrFenced = errors.New("server: replication peer fenced by a newer epoch")
)

// CodeFor classifies err as a wire code.
func CodeFor(err error) Code {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, ErrAuth):
		return CodeAuth
	case errors.Is(err, ErrBusy):
		return CodeBusy
	case errors.Is(err, lock.ErrDeadlock):
		return CodeDeadlock
	case errors.Is(err, lock.ErrWaitTimeout):
		return CodeWaitTimeout
	case errors.Is(err, txn.ErrReadOnly):
		return CodeReadOnly
	case errors.Is(err, sched.ErrStopped):
		return CodeShuttingDown
	case errors.Is(err, ErrTxnState):
		return CodeTxnState
	case errors.Is(err, ErrTooLarge):
		return CodeTooLarge
	case errors.Is(err, ErrReplica):
		return CodeReplica
	case errors.Is(err, ErrLagging):
		return CodeLagging
	case errors.Is(err, ErrFenced):
		return CodeFenced
	}
	return CodeInternal
}

// WireError is an ERR frame decoded client-side. Unwrap maps the code back
// to the sentinel the embedded engine would have returned, so
// errors.Is(err, strip.ErrDeadlock) — and strip.IsRetryable — behave
// identically for remote and embedded callers.
type WireError struct {
	Code Code
	Msg  string
}

// Error renders the code and server message.
func (e *WireError) Error() string { return fmt.Sprintf("server: [%s] %s", e.Code, e.Msg) }

// Unwrap maps the wire code to its sentinel error.
func (e *WireError) Unwrap() error {
	switch e.Code {
	case CodeAuth:
		return ErrAuth
	case CodeBusy:
		return ErrBusy
	case CodeDeadlock:
		return lock.ErrDeadlock
	case CodeWaitTimeout:
		return lock.ErrWaitTimeout
	case CodeReadOnly:
		return txn.ErrReadOnly
	case CodeShuttingDown:
		return sched.ErrStopped
	case CodeTxnState:
		return ErrTxnState
	case CodeTooLarge:
		return ErrTooLarge
	case CodeReplica:
		return ErrReplica
	case CodeLagging:
		return ErrLagging
	case CodeFenced:
		return ErrFenced
	default:
		return nil
	}
}

// DecodeError rebuilds the typed error an ERR frame carries.
func DecodeError(code Code, msg string) error { return &WireError{Code: code, Msg: msg} }

// frameHeader is a frame's length (uint32 big-endian, covering the type
// byte and payload) and its type byte.
const frameHeader = 5

// frameBufCap bounds each buffer a FrameIO keeps from one frame to the
// next. A larger frame gets a buffer of its own, dropped once the frame is
// done, so one big result does not stay pinned by its connection.
const frameBufCap = 64 << 10

// FrameIO reads and writes one connection's frames through two buffers it
// keeps between frames, so that once they have grown, reading or writing
// a frame allocates nothing and writing one is a single write.
type FrameIO struct {
	hdr     [4]byte
	in, out []byte
}

// Read reads one frame, rejecting empty and oversized bodies. The payload
// is f's buffer, valid until the next Read.
func (f *FrameIO) Read(r io.Reader) (typ byte, payload []byte, err error) {
	if _, err := io.ReadFull(r, f.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.BigEndian.Uint32(f.hdr[:]))
	if n == 0 || n > MaxFrame {
		return 0, nil, fmt.Errorf("server: bad frame length %d", n)
	}
	body := f.in
	if n > cap(body) {
		body = make([]byte, n)
		if n <= frameBufCap {
			f.in = body
		}
	}
	if _, err := io.ReadFull(r, body[:n]); err != nil {
		return 0, nil, err
	}
	return body[0], body[1:n], nil
}

// Frame starts an outgoing frame in f's buffer and returns it: room for
// the header, to which the caller appends the payload before Send.
func (f *FrameIO) Frame() []byte { return append(f.out[:0], 0, 0, 0, 0, 0) }

// Send writes the frame buf[start:] in one write, filling in its header:
// buf is a buffer from Frame with the payload appended, and the frame's
// header room begins at start. f keeps buf for the next frame unless it
// grew past frameBufCap.
func (f *FrameIO) Send(w io.Writer, typ byte, buf []byte, start int) error {
	f.out = buf[:0]
	if cap(buf) > frameBufCap {
		f.out = nil
	}
	frame := buf[start:]
	if len(frame)-4 > MaxFrame {
		return fmt.Errorf("server: frame too large (%d bytes)", len(frame)-4)
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	frame[4] = typ
	_, err := w.Write(frame)
	return err
}

// WriteFrame writes one frame: uint32 big-endian length covering the type
// byte and payload, then both.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	return new(FrameIO).Send(w, typ, append(make([]byte, frameHeader, frameHeader+len(payload)), payload...), 0)
}

// ReadFrame reads one frame into a buffer of its own.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) { return new(FrameIO).Read(r) }

// --- payload field encoding ------------------------------------------------

// appendStr appends a uvarint-length-prefixed string.
func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decoder walks a payload, remembering the first error; every take method
// returns a zero value after a fault so callers can decode a whole frame
// and check once.
type decoder struct {
	b   []byte
	err error
	// src, when set, is the whole payload as one string; str slices it
	// instead of copying each field out of b.
	src string
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("server: truncated or corrupt %s field", what)
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.fail("string")
		return ""
	}
	var s string
	if d.src != "" {
		off := len(d.src) - len(d.b)
		s = d.src[off : off+int(n)]
	} else {
		s = string(d.b[:n])
	}
	d.b = d.b[n:]
	return s
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) == 0 {
		d.fail("byte")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("float")
		return 0
	}
	bits := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return math.Float64frombits(bits)
}

// appendValue appends one typed value: kind byte then a kind-specific
// payload (nothing for null, varint for int/time, 8-byte bits for float,
// length-prefixed bytes for string).
func appendValue(b []byte, v types.Value) []byte {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
	case types.KindNull:
	case types.KindInt:
		b = binary.AppendVarint(b, v.Int())
	case types.KindTime:
		b = binary.AppendVarint(b, v.Micros())
	case types.KindFloat:
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case types.KindString:
		b = appendStr(b, v.Str())
	}
	return b
}

func (d *decoder) value() types.Value {
	kind := types.Kind(d.byte())
	if d.err != nil {
		return types.Value{}
	}
	switch kind {
	case types.KindNull:
		return types.Value{}
	case types.KindInt:
		return types.Int(d.varint())
	case types.KindTime:
		return types.Time(d.varint())
	case types.KindFloat:
		return types.Float(d.float())
	case types.KindString:
		return types.Str(d.str())
	default:
		d.fail("value kind")
		return types.Value{}
	}
}

// --- frame payload builders/parsers ----------------------------------------

// EncodeHello builds a HELLO payload.
func EncodeHello(token, tenant string) []byte {
	b := append([]byte(protoMagic), ProtoVersion)
	b = appendStr(b, token)
	return appendStr(b, tenant)
}

// EncodeHelloLag builds a HELLO payload carrying a lag bound: reads on a
// replica fail with CodeLagging while replication lag exceeds maxLagMicros.
// The field is a backward-compatible trailer — old servers that stop
// decoding after the tenant simply ignore it.
func EncodeHelloLag(token, tenant string, maxLagMicros uint64) []byte {
	return binary.AppendUvarint(EncodeHello(token, tenant), maxLagMicros)
}

// DecodeHelloLag parses a HELLO payload including the optional lag-bound
// trailer (0 when absent: no bound).
func DecodeHelloLag(p []byte) (token, tenant string, maxLagMicros uint64, err error) {
	if len(p) < len(protoMagic)+1 || string(p[:len(protoMagic)]) != protoMagic {
		return "", "", 0, fmt.Errorf("server: bad protocol magic")
	}
	if v := p[len(protoMagic)]; v != ProtoVersion {
		return "", "", 0, fmt.Errorf("server: unsupported protocol version %d", v)
	}
	d := &decoder{b: p[len(protoMagic)+1:]}
	token, tenant = d.str(), d.str()
	if d.err == nil && len(d.b) > 0 {
		maxLagMicros = d.uvarint()
	}
	return token, tenant, maxLagMicros, d.err
}

// EncodeWelcome builds a WELCOME payload.
func EncodeWelcome(sessionID int64) []byte {
	b := []byte{ProtoVersion}
	return binary.AppendVarint(b, sessionID)
}

// DecodeWelcome parses a WELCOME payload.
func DecodeWelcome(p []byte) (sessionID int64, err error) {
	d := &decoder{b: p}
	if v := d.byte(); d.err == nil && v != ProtoVersion {
		return 0, fmt.Errorf("server: unsupported protocol version %d", v)
	}
	return d.varint(), d.err
}

// EncodeSQL builds a QUERY/EXEC payload.
func EncodeSQL(sql string) []byte { return AppendSQL(nil, sql) }

// AppendSQL appends a QUERY/EXEC payload to b.
func AppendSQL(b []byte, sql string) []byte { return appendStr(b, sql) }

// DecodeSQL parses a QUERY/EXEC payload.
func DecodeSQL(p []byte) (string, error) {
	d := &decoder{b: p}
	sql := d.str()
	return sql, d.err
}

// decodeSlabVals is how many values DecodeRows claims per allocation.
const decodeSlabVals = 8192

// rowsFrame is the wire sink (a query.RowSink): it encodes a SELECT's
// rows into its FrameIO's outgoing frame as the query produces them. The
// payload is the column count and names, the row count, then the rows; the
// count is known only at the end, so Columns leaves room for its longest
// encoding after the names, and frame moves the header and names up against
// the count instead of moving any row.
type rowsFrame struct {
	f       *FrameIO
	colsEnd int // the names end here in f.out; the room ends at head
	head    int // the rows begin here
	n       int
}

// Columns implements query.RowSink.
func (r *rowsFrame) Columns(names []string) error {
	b := binary.AppendUvarint(r.f.Frame(), uint64(len(names)))
	for _, c := range names {
		b = appendStr(b, c)
	}
	r.colsEnd, r.n = len(b), 0
	r.f.out = append(b, make([]byte, binary.MaxVarintLen64)...)
	r.head = len(r.f.out)
	return nil
}

// Row implements query.RowSink. It fails with ErrTooLarge at the first row
// that takes the frame past MaxFrame.
func (r *rowsFrame) Row(row []types.Value) error {
	b := r.f.out
	for _, v := range row {
		b = appendValue(b, v)
	}
	r.f.out, r.n = b, r.n+1
	if body := 1 + len(b) - r.head + r.colsEnd - frameHeader + uvarintLen(r.n); body > MaxFrame {
		return fmt.Errorf("%w: the frame limit is %d bytes, row %d takes it to %d; narrow the query",
			ErrTooLarge, MaxFrame, r.n, body)
	}
	return nil
}

// frame finishes the ROWS frame: the buffer and where its header begins.
func (r *rowsFrame) frame() ([]byte, int) {
	b := r.f.out
	k := uvarintLen(r.n)
	binary.PutUvarint(b[r.head-k:], uint64(r.n))
	start := r.head - k - r.colsEnd
	copy(b[start+frameHeader:], b[frameHeader:r.colsEnd])
	return b, start
}

func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// EncodeRows builds a ROWS payload from rows held as values, through the
// same encoder the session streams a result through. The buffer is sized
// once from the first row's encoding (rows of one result are alike).
func EncodeRows(cols []string, rows [][]types.Value) []byte {
	r := rowsFrame{f: &FrameIO{}}
	r.Columns(cols) //nolint:errcheck // cannot fail
	for i, row := range rows {
		r.Row(row) //nolint:errcheck // an oversized payload is the caller's to refuse
		if i == 0 {
			r.f.out = slices.Grow(r.f.out, (len(r.f.out)-r.head)*(len(rows)-1))
		}
	}
	b, start := r.frame()
	return b[start+frameHeader:]
}

// DecodeRows parses a ROWS payload. Field counts come off the wire, so
// they are bounded against the bytes actually present (every column name
// and every value occupies at least one byte) before anything is
// allocated — a short hostile frame cannot demand huge slices. The rows
// are carved from value slabs of decodeSlabVals values (claimed only as
// rows actually decode) and their strings from one copy of the payload,
// so decoding costs an allocation per few thousand values, not per row; a
// retained string keeps that copy (the size of the result it came with)
// alive.
func DecodeRows(p []byte) (cols []string, rows [][]types.Value, err error) {
	d := &decoder{b: p, src: string(p)}
	ncols := d.uvarint()
	if ncols > uint64(len(d.b)) {
		return nil, nil, fmt.Errorf("server: absurd column count %d", ncols)
	}
	cols = make([]string, ncols)
	for i := range cols {
		cols[i] = d.str()
	}
	nrows := d.uvarint()
	if d.err != nil {
		return nil, nil, d.err
	}
	perRow := ncols
	if perRow == 0 {
		perRow = 1
	}
	if nrows > uint64(len(d.b))/perRow {
		return nil, nil, fmt.Errorf("server: absurd row count %d", nrows)
	}
	rows = make([][]types.Value, nrows)
	var slab []types.Value
	for i := range rows {
		if uint64(len(slab)) < ncols {
			n := min(max(decodeSlabVals/perRow, 1), nrows-uint64(i))
			slab = make([]types.Value, n*ncols)
		}
		row := slab[:ncols:ncols]
		slab = slab[ncols:]
		for j := range row {
			row[j] = d.value()
		}
		if d.err != nil {
			return nil, nil, d.err
		}
		rows[i] = row
	}
	if len(d.b) != 0 {
		// Bytes past the last row: a zero-column frame could otherwise
		// claim one row per trailing byte, which it cannot re-encode.
		return nil, nil, fmt.Errorf("server: %d bytes after the last row", len(d.b))
	}
	return cols, rows, nil
}

// EncodeOK builds an OK payload.
func EncodeOK(affected int) []byte { return binary.AppendUvarint(nil, uint64(affected)) }

// DecodeOK parses an OK payload.
func DecodeOK(p []byte) (affected int, err error) {
	d := &decoder{b: p}
	n := d.uvarint()
	return int(n), d.err
}

// EncodeErr builds an ERR payload.
func EncodeErr(code Code, msg string) []byte {
	return appendStr([]byte{byte(code)}, msg)
}

// DecodeErr parses an ERR payload.
func DecodeErr(p []byte) (Code, string, error) {
	d := &decoder{b: p}
	code := Code(d.byte())
	msg := d.str()
	return code, msg, d.err
}
