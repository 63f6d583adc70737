package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"github.com/stripdb/strip/internal/catalog"
	"github.com/stripdb/strip/internal/index"
	"github.com/stripdb/strip/internal/types"
)

// Log record kinds. Commit records carry a transaction's redo images; DDL
// records capture schema changes made outside transactions; epoch records
// carry the replication fencing epoch (see BumpEpoch).
const (
	recCommit byte = iota + 1
	recCreateTable
	recCreateIndex
	recDropTable
	recEpoch
)

// Redo-op kinds inside a commit record (mirrors txn.Op, but the wire format
// is versioned independently of that package's iota order).
const (
	opInsert byte = iota
	opDelete
	opUpdate
)

// maxRecordBytes bounds a single record payload; larger length prefixes are
// treated as corruption (torn or garbage tail).
const maxRecordBytes = 1 << 30

// redoOp is one decoded redo operation.
type redoOp struct {
	kind  byte
	table string
	old   []types.Value // delete, update
	new   []types.Value // insert, update
}

// commitRec is a decoded commit record.
type commitRec struct {
	txnID    int64
	commitAt int64
	ops      []redoOp
}

// frameOverhead is what appendFrame adds around a record body.
const frameOverhead = 8 + 9

// appendFrame appends a record to dst as it appears in the log file:
// [u32 payload length][u32 CRC-32 (IEEE) of payload][payload],
// payload = [u8 kind][u64 LSN][body]. The checksum is computed over the
// payload where it lands in dst, so a group-commit batch is encoded straight
// into the one buffer that is written and then shipped.
func appendFrame(dst []byte, kind byte, lsn uint64, body []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0, kind)
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = append(dst, body...)
	payload := dst[start+8:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// readFrame parses the frame starting at off. ok is false when the bytes at
// off do not form a complete, checksum-valid frame (torn tail).
func readFrame(b []byte, off int) (kind byte, lsn uint64, body []byte, next int, ok bool) {
	if off+8 > len(b) {
		return 0, 0, nil, off, false
	}
	n := int(binary.LittleEndian.Uint32(b[off : off+4]))
	if n < 9 || n > maxRecordBytes || off+8+n > len(b) {
		return 0, 0, nil, off, false
	}
	payload := b[off+8 : off+8+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[off+4:off+8]) {
		return 0, 0, nil, off, false
	}
	return payload[0], binary.LittleEndian.Uint64(payload[1:9]), payload[9:], off + 8 + n, true
}

// enc accumulates a record body.
type enc struct{ b []byte }

func (e *enc) u8(v byte)    { e.b = append(e.b, v) }
func (e *enc) u16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)  { e.u64(uint64(v)) }

func (e *enc) str(s string) {
	e.u32(uint32(len(s)))
	e.b = append(e.b, s...)
}

func (e *enc) val(v types.Value) {
	e.u8(byte(v.Kind()))
	switch v.Kind() {
	case types.KindNull:
	case types.KindInt:
		e.i64(v.Int())
	case types.KindFloat:
		e.u64(math.Float64bits(v.Float()))
	case types.KindString:
		e.str(v.Str())
	case types.KindTime:
		e.i64(v.Micros())
	}
}

func (e *enc) row(vals []types.Value) {
	e.u16(uint16(len(vals)))
	for _, v := range vals {
		e.val(v)
	}
}

// dec decodes a record body with a sticky error.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("wal: truncated record body at offset %d", d.off)
	}
}

func (d *dec) u8() byte {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *dec) u16() uint16 {
	if d.err != nil || d.off+2 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) i64() int64 { return int64(d.u64()) }

func (d *dec) str() string {
	n := int(d.u32())
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *dec) val() types.Value {
	switch types.Kind(d.u8()) {
	case types.KindNull:
		return types.Null()
	case types.KindInt:
		return types.Int(d.i64())
	case types.KindFloat:
		return types.Float(math.Float64frombits(d.u64()))
	case types.KindString:
		return types.Str(d.str())
	case types.KindTime:
		return types.Time(d.i64())
	default:
		if d.err == nil {
			d.err = fmt.Errorf("wal: unknown value kind at offset %d", d.off)
		}
		return types.Null()
	}
}

func (d *dec) row() []types.Value {
	n := int(d.u16())
	if d.err != nil {
		return nil
	}
	vals := make([]types.Value, n)
	for i := range vals {
		vals[i] = d.val()
	}
	return vals
}

// encodeCommit serializes a committing transaction's redo images.
func encodeCommit(txnID, commitAt int64, ops []redoOp) []byte {
	e := &enc{}
	e.i64(txnID)
	e.i64(commitAt)
	e.u32(uint32(len(ops)))
	for _, op := range ops {
		e.u8(op.kind)
		e.str(op.table)
		switch op.kind {
		case opInsert:
			e.row(op.new)
		case opDelete:
			e.row(op.old)
		case opUpdate:
			e.row(op.old)
			e.row(op.new)
		}
	}
	return e.b
}

func decodeCommit(body []byte) (commitRec, error) {
	d := &dec{b: body}
	rec := commitRec{txnID: d.i64(), commitAt: d.i64()}
	n := int(d.u32())
	if d.err != nil {
		return rec, d.err
	}
	rec.ops = make([]redoOp, 0, n)
	for i := 0; i < n; i++ {
		op := redoOp{kind: d.u8(), table: d.str()}
		switch op.kind {
		case opInsert:
			op.new = d.row()
		case opDelete:
			op.old = d.row()
		case opUpdate:
			op.old = d.row()
			op.new = d.row()
		default:
			return rec, fmt.Errorf("wal: unknown redo op kind %d", op.kind)
		}
		if d.err != nil {
			return rec, d.err
		}
		rec.ops = append(rec.ops, op)
	}
	return rec, d.err
}

func encodeSchema(e *enc, s *catalog.Schema) {
	e.str(s.Name())
	e.u16(uint16(s.NumCols()))
	for i := 0; i < s.NumCols(); i++ {
		c := s.Col(i)
		e.str(c.Name)
		e.u8(byte(c.Kind))
	}
}

func decodeSchema(d *dec) (*catalog.Schema, error) {
	name := d.str()
	n := int(d.u16())
	if d.err != nil {
		return nil, d.err
	}
	cols := make([]catalog.Column, n)
	for i := range cols {
		cols[i] = catalog.Column{Name: d.str(), Kind: types.Kind(d.u8())}
	}
	if d.err != nil {
		return nil, d.err
	}
	return catalog.NewSchema(name, cols)
}

func encodeCreateTable(s *catalog.Schema) []byte {
	e := &enc{}
	encodeSchema(e, s)
	return e.b
}

func encodeCreateIndex(table, column string, kind index.Kind) []byte {
	e := &enc{}
	e.str(table)
	e.str(column)
	e.u8(byte(kind))
	return e.b
}

func encodeDropTable(name string) []byte {
	e := &enc{}
	e.str(name)
	return e.b
}

func encodeEpoch(epoch uint64) []byte {
	e := &enc{}
	e.u64(epoch)
	return e.b
}
