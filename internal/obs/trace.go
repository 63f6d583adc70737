package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Kind classifies a trace event.
type Kind uint8

// Trace event kinds, covering the engine's hot paths end to end: a rule
// firing can be followed from the triggering transaction's commit through
// match (RuleFire/RuleMerge), enqueue (TaskSubmit), release (TaskStart),
// and execution (ActionDone, StaleSample, TaskFinish).
const (
	KindTxnCommit Kind = iota + 1
	KindTxnAbort
	KindLockWait
	KindLockDeadlock
	KindTaskSubmit
	KindTaskStart
	KindTaskFinish
	KindTaskShed
	KindRuleFire
	KindRuleMerge
	KindActionDone
	KindQuery
	KindRuleQuarantine
	KindTaskRetry
	KindStaleSample
	KindSessionOpen
	KindSessionClose
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindTxnCommit:
		return "txn.commit"
	case KindTxnAbort:
		return "txn.abort"
	case KindLockWait:
		return "lock.wait"
	case KindLockDeadlock:
		return "lock.deadlock"
	case KindTaskSubmit:
		return "task.submit"
	case KindTaskStart:
		return "task.start"
	case KindTaskFinish:
		return "task.finish"
	case KindTaskShed:
		return "task.shed"
	case KindRuleFire:
		return "rule.fire"
	case KindRuleMerge:
		return "rule.merge"
	case KindActionDone:
		return "action.done"
	case KindQuery:
		return "query"
	case KindRuleQuarantine:
		return "rule.quarantine"
	case KindTaskRetry:
		return "task.retry"
	case KindStaleSample:
		return "stale.sample"
	case KindSessionOpen:
		return "session.open"
	case KindSessionClose:
		return "session.close"
	default:
		return "unknown"
	}
}

// MarshalText renders the kind for JSON output.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses the rendered form back, so clients can decode
// /debug/trace dumps into Event values. Unrecognized names decode to 0.
func (k *Kind) UnmarshalText(text []byte) error {
	s := string(text)
	for c := KindTxnCommit; c <= KindSessionClose; c++ {
		if c.String() == s {
			*k = c
			return nil
		}
	}
	*k = 0
	return nil
}

// Event is one trace entry. Name identifies the actor (rule, function, or
// task name; empty for anonymous transactions) and Arg carries a
// kind-specific quantity (ids, row counts, or durations in microseconds).
//
// Trace and Parent make events causally linkable: Trace identifies the
// whole chain a rule firing belongs to (the triggering transaction's id —
// the chain's root), and Parent is the entity id of the event's direct
// cause (the triggering transaction for rule.fire/task.submit, the task
// for task.start/action.done/stale.sample, the queued task for
// rule.merge). Zero means untraced: events outside any rule chain (lock
// waits, plain queries) carry no span identity.
type Event struct {
	Seq    uint64 `json:"seq"`
	At     int64  `json:"at_micros"`
	Kind   Kind   `json:"kind"`
	Name   string `json:"name,omitempty"`
	Arg    int64  `json:"arg,omitempty"`
	Trace  int64  `json:"trace,omitempty"`
	Parent int64  `json:"parent,omitempty"`
}

// String renders the event for logs.
func (e Event) String() string {
	s := fmt.Sprintf("#%d t=%dµs %s", e.Seq, e.At, e.Kind)
	if e.Name != "" {
		s += " " + e.Name
	}
	s += fmt.Sprintf(" arg=%d", e.Arg)
	if e.Trace != 0 {
		s += fmt.Sprintf(" trace=%d parent=%d", e.Trace, e.Parent)
	}
	return s
}

// Tracer is a bounded ring buffer of recent events. Emit claims a slot
// under a short critical section and copies one fixed-size value — no
// allocation — so it is cheap enough for hot paths; an atomic enabled gate
// makes the disabled path a single load. Overflow is not silent: every
// event overwritten before it was ever read out counts into Dropped.
type Tracer struct {
	enabled atomic.Bool
	dropped atomic.Int64
	mu      sync.Mutex
	buf     []Event
	next    uint64 // total events emitted since creation/reset
}

// NewTracer creates an enabled tracer holding the last capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	t := &Tracer{buf: make([]Event, capacity)}
	t.enabled.Store(true)
	return t
}

// Enabled reports whether Emit records. Guard expensive argument
// construction (e.g. formatting lock names) on this.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// SetEnabled toggles recording.
func (t *Tracer) SetEnabled(on bool) { t.enabled.Store(on) }

// Emit records one untraced event at engine time at. No-op when disabled.
func (t *Tracer) Emit(at int64, kind Kind, name string, arg int64) {
	t.EmitSpan(at, kind, name, arg, 0, 0)
}

// EmitSpan records one event carrying span identity: trace is the causal
// chain's root id (the triggering transaction), parent the entity id of
// the direct cause. No-op when disabled.
func (t *Tracer) EmitSpan(at int64, kind Kind, name string, arg, trace, parent int64) {
	if !t.enabled.Load() {
		return
	}
	t.mu.Lock()
	if t.next >= uint64(len(t.buf)) {
		// The slot being claimed still holds an unread event from one lap
		// ago; overwriting it is a drop the ring must account for.
		t.dropped.Add(1)
	}
	t.buf[t.next%uint64(len(t.buf))] = Event{
		Seq: t.next, At: at, Kind: kind, Name: name, Arg: arg,
		Trace: trace, Parent: parent,
	}
	t.next++
	t.mu.Unlock()
}

// Len reports how many events are currently retained.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.next < uint64(len(t.buf)) {
		return int(t.next)
	}
	return len(t.buf)
}

// Cap reports the ring capacity.
func (t *Tracer) Cap() int { return len(t.buf) }

// Emitted reports the total events emitted since creation/reset, including
// those since overwritten.
func (t *Tracer) Emitted() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Dropped reports how many events have been overwritten by ring wrap-around
// since creation/reset — the trace's blind spot.
func (t *Tracer) Dropped() int64 { return t.dropped.Load() }

// Recent returns up to n retained events, oldest first.
func (t *Tracer) Recent(n int) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	have := t.next
	if have > uint64(len(t.buf)) {
		have = uint64(len(t.buf))
	}
	if n < 0 || uint64(n) > have {
		n = int(have)
	}
	out := make([]Event, n)
	for i := 0; i < n; i++ {
		seq := t.next - uint64(n) + uint64(i)
		out[i] = t.buf[seq%uint64(len(t.buf))]
	}
	return out
}

// Span reconstructs the causal chain rooted at trace: every retained event
// carrying the trace id, plus cross-linked events (rule.merge entries from
// other transactions' chains) whose Parent is one of the chain's tasks.
// Events come back in emission order.
func (t *Tracer) Span(trace int64) []Event {
	if trace == 0 {
		return nil
	}
	t.mu.Lock()
	have := t.next
	if have > uint64(len(t.buf)) {
		have = uint64(len(t.buf))
	}
	all := make([]Event, have)
	for i := uint64(0); i < have; i++ {
		seq := t.next - have + i
		all[i] = t.buf[seq%uint64(len(t.buf))]
	}
	t.mu.Unlock()

	// Pass 1: the chain proper, collecting its task ids. Task-scoped kinds
	// carry the task id in Parent; task.submit carries it in Arg.
	tasks := map[int64]bool{}
	var out []Event
	for _, ev := range all {
		if ev.Trace != trace {
			continue
		}
		out = append(out, ev)
		switch ev.Kind {
		case KindTaskSubmit:
			tasks[ev.Arg] = true
		case KindTaskStart, KindTaskFinish, KindTaskShed, KindTaskRetry,
			KindActionDone, KindStaleSample:
			tasks[ev.Parent] = true
		}
	}
	if len(tasks) == 0 {
		return out
	}
	// Pass 2: cross-links — events from other chains whose parent is one of
	// ours (merges into this chain's queued tasks).
	seen := map[uint64]bool{}
	for _, ev := range out {
		seen[ev.Seq] = true
	}
	for _, ev := range all {
		if !seen[ev.Seq] && ev.Parent != 0 && tasks[ev.Parent] {
			out = append(out, ev)
			seen[ev.Seq] = true
		}
	}
	sortEventsBySeq(out)
	return out
}

func sortEventsBySeq(evs []Event) {
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
}

// Reset discards retained events and zeroes the emit and drop counters.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.next = 0
	t.dropped.Store(0)
	t.mu.Unlock()
}
