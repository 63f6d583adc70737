package retry

import (
	"errors"
	"testing"
	"time"
)

// Delay stays inside [d/2, d] of the capped doubling, repeats for the same
// key and retry (virtual-clock replays depend on it), and spreads keys.
func TestDelayBoundsAndJitter(t *testing.T) {
	p := Policy{Base: 2 * time.Millisecond, Max: 128 * time.Millisecond}
	for n := 1; n <= 40; n++ {
		nominal := p.Max
		if n <= 8 {
			nominal = min(p.Base<<uint(n-1), p.Max)
		}
		seen := map[time.Duration]bool{}
		for key := uint64(0); key < 64; key++ {
			d := p.Delay(n, key)
			if d < nominal/2 || d > nominal {
				t.Fatalf("Delay(%d, %d) = %v, want in [%v, %v]", n, key, d, nominal/2, nominal)
			}
			if d != p.Delay(n, key) {
				t.Fatalf("Delay(%d, %d) is not a function of its inputs", n, key)
			}
			seen[d] = true
		}
		if len(seen) < 32 {
			t.Errorf("retry %d: 64 keys gave only %d distinct delays", n, len(seen))
		}
	}
}

// Do stops on success, on an error the caller will not retry, and after
// Retries retries.
func TestDoStops(t *testing.T) {
	p := Policy{Base: 10 * time.Microsecond, Max: 40 * time.Microsecond, Retries: 3}
	transient := errors.New("transient")
	always := func(error) bool { return true }
	for _, tc := range []struct {
		name      string
		p         Policy
		failFirst int
		retryable func(error) bool
		wantCalls int
		wantErr   bool
	}{
		{"succeeds after two failures", p, 2, always, 3, false},
		{"exhausts its retries", p, 100, always, 4, true},
		{"refused error is not retried", p, 100, func(error) bool { return false }, 1, true},
		{"zero retries tries once", Policy{}, 100, always, 1, true},
	} {
		calls := 0
		err := tc.p.Do(tc.retryable, func() error {
			calls++
			if calls <= tc.failFirst {
				return transient
			}
			return nil
		})
		if calls != tc.wantCalls || (err != nil) != tc.wantErr {
			t.Errorf("%s: %d calls, err %v; want %d calls, err %v", tc.name, calls, err, tc.wantCalls, tc.wantErr)
		}
	}
}
