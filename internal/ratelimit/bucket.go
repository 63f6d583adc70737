// Package ratelimit implements a small token bucket over a caller-supplied
// microsecond clock. The rule-engine circuit breaker paces half-open
// recovery probes with it on engine time, virtual or real; keeping the
// clock out of the bucket keeps it testable without sleeping.
package ratelimit

import "sync"

// Bucket is a token bucket: it holds up to Capacity tokens and refills one
// token every RefillEvery microseconds. The zero value is unusable; build
// with New.
type Bucket struct {
	mu          sync.Mutex
	capacity    float64
	refillEvery float64 // micros per token
	tokens      float64
	last        int64 // clock of the last refill accounting
	primed      bool
}

// New builds a bucket that starts full. capacity < 1 is clamped to 1;
// refillEveryMicros <= 0 disables refill (the bucket then grants exactly
// capacity tokens, ever — callers use that for hard attempt caps).
func New(capacity int, refillEveryMicros int64) *Bucket {
	if capacity < 1 {
		capacity = 1
	}
	return &Bucket{
		capacity:    float64(capacity),
		refillEvery: float64(refillEveryMicros),
		tokens:      float64(capacity),
	}
}

// refillLocked credits tokens accrued since the last accounting at time now.
// Clocks that jump backwards (virtual-clock resets) only delay the next
// credit; they never produce negative balances.
func (b *Bucket) refillLocked(now int64) {
	if !b.primed {
		b.last, b.primed = now, true
		return
	}
	if b.refillEvery <= 0 || now <= b.last {
		return
	}
	b.tokens += float64(now-b.last) / b.refillEvery
	if b.tokens > b.capacity {
		b.tokens = b.capacity
	}
	b.last = now
}

// TryTake consumes one token at time now, reporting whether one was
// available.
func (b *Bucket) TryTake(now int64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(now)
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// NextToken reports how many microseconds past now until a token becomes
// available (0 when one is available already). A bucket with refill
// disabled and no tokens left returns -1: no token is ever coming.
func (b *Bucket) NextToken(now int64) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(now)
	if b.tokens >= 1 {
		return 0
	}
	if b.refillEvery <= 0 {
		return -1
	}
	return int64((1 - b.tokens) * b.refillEvery)
}

// Tokens reports the current whole-token balance at time now (diagnostics).
func (b *Bucket) Tokens(now int64) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.refillLocked(now)
	return int(b.tokens)
}

// Reset refills the bucket to capacity and re-anchors its clock at now.
func (b *Bucket) Reset(now int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tokens = b.capacity
	b.last, b.primed = now, true
}
