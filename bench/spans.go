package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Live spans wrap what the load generator and the bench-owned
// rule action can see; walk spans wrap each layer's public call while one
// statement is pushed through the layers by hand (walk.go).
const (
	spOp uint8 = iota // due -> reply
	spRoundtrip
	spSchedWait // task release -> action start
	spAction
	spReplVisible // canary ack on the primary -> visible on the standby
	spWalkOp
	spCodecReq
	spParse
	spTxnBegin
	spQueryRun
	spTxnCommit
	spCodecResp
)

var spanNames = [...]string{
	"op", "client.roundtrip", "sched.wait", "core.action", "repl.visible",
	"walk.op", "server.codec_req", "sqlparse.parse", "txn.begin", "query.run",
	"txn.commit", "server.codec_resp",
}

// span is pointer-free so that a few hundred thousand of them cost the
// garbage collector nothing to scan.
type span struct {
	op, id, parent uint32
	name           uint8
	start, end     int64 // ns since the recorder's epoch
}

// tracer keeps spans in memory and writes them out when the run ends.
// A nil *tracer records nothing, which is the untraced run.
type tracer struct {
	epoch time.Time
	on    atomic.Bool // toggled off for the untraced saturation segments
	ops   atomic.Uint32
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<18)}
	t.on.Store(true)
	return t
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// newOp allocates an operation id shared by the spans of one request.
func (t *tracer) newOp() uint32 { return t.ops.Add(1) }

// add records one span and returns its id (for use as a parent).
func (t *tracer) add(op, parent uint32, name uint8, start, end time.Time) uint32 {
	t.mu.Lock()
	id := uint32(len(t.spans) + 1)
	t.spans = append(t.spans, span{op: op, id: id, parent: parent, name: name,
		start: start.Sub(t.epoch).Nanoseconds(), end: end.Sub(t.epoch).Nanoseconds()})
	t.mu.Unlock()
	return id
}

// spanRow is one line of the span file.
type spanRow struct {
	Workload string `json:"workload"`
	Op       uint32 `json:"op"`
	Span     uint32 `json:"span"`
	Parent   uint32 `json:"parent"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// write appends the spans to path as JSON lines.
func (t *tracer) write(path, workload string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(spanRow{workload, s.op, s.id, s.parent, spanNames[s.name], s.start, s.end}); err != nil {
			f.Close() //nolint:errcheck // already failing
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close() //nolint:errcheck // already failing
		return err
	}
	return f.Close()
}
