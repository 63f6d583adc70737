// Package retry is the engine's one retry policy: a capped exponential
// backoff, jittered into [d/2, d], under a bound on retries. Rule actions
// and periodic recomputes reschedule themselves on engine time with Delay;
// auto-committed DML and the network client's busy retry wait on the wall
// clock with Do; a standby's reconnect loop, which never gives up, sleeps
// Delay between its attempts.
//
// The jitter hashes a caller-chosen key with the retry number instead of
// drawing from a generator, so virtual-clock runs replay exactly while
// retriers with different keys still decorrelate.
package retry

import "time"

// Policy is a capped, jittered exponential backoff.
type Policy struct {
	// Base is the nominal wait before the first retry; each further retry
	// doubles it.
	Base time.Duration
	// Max caps one nominal wait.
	Max time.Duration
	// Retries bounds the retries after the first try.
	Retries int
}

// Default is the policy for transient concurrency aborts (deadlock victim,
// lock-wait timeout): up to five retries, 2 ms doubling to a 128 ms cap.
var Default = Policy{Base: 2 * time.Millisecond, Max: 128 * time.Millisecond, Retries: 5}

// Delay is the wait before retry n (1-based) of the retrier key:
// Base<<(n-1), capped at Max, jittered into [d/2, d]. The jitter has
// microsecond grain, engine time's unit.
func (p Policy) Delay(n int, key uint64) time.Duration {
	d := p.Max
	if n <= 32 && p.Base<<uint(n-1) < d {
		d = p.Base << uint(n-1)
	}
	h := key*0x9E3779B97F4A7C15 + uint64(n)*0xBF58476D1CE4E5B9
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	half := uint64(d.Microseconds() / 2)
	return time.Duration(half+h%(half+1)) * time.Microsecond
}

// Do runs op until it succeeds, fails with an error retryable rejects, or
// has been retried p.Retries times, sleeping Delay between tries. It
// returns op's last error.
func (p Policy) Do(retryable func(error) bool, op func() error) error {
	var key uint64
	for n := 1; ; n++ {
		err := op()
		if err == nil || n > p.Retries || !retryable(err) {
			return err
		}
		if key == 0 {
			key = uint64(time.Now().UnixNano())
		}
		time.Sleep(p.Delay(n, key))
	}
}
