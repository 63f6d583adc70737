package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	strip "github.com/stripdb/strip"
	"github.com/stripdb/strip/client"
)

// maxRetries bounds the bench's own retry of a transient refusal (busy
// shed, deadlock victim, lock-wait timeout). The client's built-in busy
// retry is switched off so that every retry is counted here.
const (
	maxRetries   = 4
	retryBackoff = time.Millisecond
)

// phaseRec is what one connection records during one measured phase.
type phaseRec struct {
	lat       [nClasses]sample // ns from the due time (open loop) or the send (closed loop) to the reply
	svc       [nClasses]sample // ns from the send to the reply
	late      sample           // open loop: ns the send ran behind its due time
	attempted int
	failed    int
	retries   int
}

func (r *phaseRec) merge(o *phaseRec) {
	for c := range r.lat {
		r.lat[c] = append(r.lat[c], o.lat[c]...)
		r.svc[c] = append(r.svc[c], o.svc[c]...)
	}
	r.late = append(r.late, o.late...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.retries += o.retries
}

// acked is the number of operations that got a correct reply.
func (r *phaseRec) acked() int { return r.attempted - r.failed }

// loadConn is one client connection with its generator.
type loadConn struct {
	c       *client.Client
	gen     *generator
	tr      *tracer
	rec     *phaseRec
	acked   atomic.Int64 // correct replies so far, read by the window sampler
	lastErr error
}

// exec sends one statement, retrying transient refusals, and checks the
// reply. A false return is a failed operation: it is counted, and its
// latency stays in the sample.
func (lc *loadConn) exec(o op) bool {
	for attempt := 0; ; attempt++ {
		var res *client.Result
		var err error
		if o.class == clsUpdate {
			res, err = lc.c.Exec(o.sql)
		} else {
			res, err = lc.c.Query(o.sql)
		}
		if err == nil {
			if err = lc.check(o, res); err == nil {
				return true
			}
			lc.lastErr = err
			return false
		}
		if !strip.IsRetryable(err) || attempt >= maxRetries {
			lc.lastErr = fmt.Errorf("%s: %w", o.sql, err)
			return false
		}
		lc.rec.retries++
		pause(retryBackoff)
	}
}

// check validates a reply against what the generator knows.
func (lc *loadConn) check(o op, res *client.Result) error {
	g := lc.gen
	switch o.class {
	case clsUpdate:
		if res.Affected != 1 {
			return fmt.Errorf("%s: affected %d rows, want 1", o.sql, res.Affected)
		}
		delete(g.dirty, o.stock)
	case clsPoint:
		if len(res.Rows) != 1 || res.Rows[0][0].Str() != symbol(o.stock) {
			return fmt.Errorf("%s: got %v", o.sql, res.Rows)
		}
		// Only this connection writes the stocks it owns, so its own acked
		// updates must be what it reads back.
		if o.stock%nConns == g.conn && !g.dirty[o.stock] {
			if got := res.Rows[0][1].Int(); got != int64(g.cur[o.stock]) {
				return fmt.Errorf("%s: price %d, last acked update wrote %d", o.sql, got, g.cur[o.stock])
			}
		}
	case clsJoin:
		if len(res.Rows) != 1 {
			return fmt.Errorf("%s: %d rows, want 1", o.sql, len(res.Rows))
		}
	case clsScan:
		if len(res.Rows) == 0 {
			return fmt.Errorf("%s: empty result", o.sql)
		}
	}
	return nil
}

// one sends a statement that was due at `due` and records it.
func (lc *loadConn) one(o op, due time.Time) {
	t0 := time.Now()
	ok := lc.exec(o)
	t1 := time.Now()
	r := lc.rec
	r.attempted++
	if ok {
		lc.acked.Add(1)
	} else {
		r.failed++
		if o.class == clsUpdate {
			lc.gen.dirty[o.stock] = true
		}
	}
	r.lat[o.class] = append(r.lat[o.class], t1.Sub(due).Nanoseconds())
	r.svc[o.class] = append(r.svc[o.class], t1.Sub(t0).Nanoseconds())
	if lc.tr.enabled() {
		id := lc.tr.newOp()
		parent := lc.tr.add(id, 0, spOp, due, t1)
		lc.tr.add(id, parent, spRoundtrip, t0, t1)
	}
}

// closedLoop sends the next statement as soon as the previous one is
// answered, with no think time, until the deadline.
func (lc *loadConn) closedLoop(next func(*generator) op, until time.Time) {
	for {
		now := time.Now()
		if !now.Before(until) {
			return
		}
		lc.one(next(lc.gen), now)
	}
}

// openLoop sends n statements on a fixed schedule starting at start. It
// sleeps until each is due (spinning would be charged to cpu_us_per_op),
// never skips one, and when it has fallen behind it sends at once; latency
// counts from the due time, so a stall is charged to every request it delays.
func (lc *loadConn) openLoop(next func(*generator) op, start time.Time, interval time.Duration, n int) {
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		sleepUntil(due)
		if late := time.Since(due); late > 0 {
			lc.rec.late = append(lc.rec.late, late.Nanoseconds())
		}
		lc.one(next(lc.gen), due)
	}
}

// runPhase runs fn on every connection at once and returns their merged
// record and how long the slowest took.
func runPhase(conns []*loadConn, fn func(*loadConn)) (*phaseRec, time.Duration) {
	start := time.Now()
	var wg sync.WaitGroup
	for _, lc := range conns {
		lc.rec = &phaseRec{}
		wg.Add(1)
		go func(lc *loadConn) {
			defer wg.Done()
			fn(lc)
		}(lc)
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := &phaseRec{}
	for _, lc := range conns {
		total.merge(lc.rec)
	}
	return total, elapsed
}

// window is one slice of a phase: how long it was, the CPU the process
// used in it and the operations acked in it.
type window struct {
	dur, cpu time.Duration
	ops      int64
}

// phaseRun is a finished phase: what the connections recorded, how long
// the slowest took, and the phase cut into windows.
type phaseRun struct {
	*phaseRec
	elapsed time.Duration
	wins    []window
}

// add appends another segment of the same phase (the next round's).
func (r *phaseRun) add(o phaseRun) {
	if r.phaseRec == nil {
		r.phaseRec = &phaseRec{}
	}
	r.merge(o.phaseRec)
	r.elapsed += o.elapsed
	r.wins = append(r.wins, o.wins...)
}

// windowLen is the length of the windows throughput and CPU per operation
// are sampled in: two of the rule's 500 ms batching windows, because a window
// that does not span whole batch cycles measures where in the cycle it fell.
const windowLen = time.Second

// windowed runs a phase while sampling CPU time and acked operations every
// windowLen. Throughput and CPU per operation are read off those windows
// (see steady), so that a garbage collection, a checkpoint or a noisy
// neighbour landing in some of them does not move the run's figure.
func windowed(conns []*loadConn, phase func() (*phaseRec, time.Duration)) phaseRun {
	total := func() (n int64) {
		for _, lc := range conns {
			n += lc.acked.Load()
		}
		return n
	}
	stop, done := make(chan struct{}), make(chan struct{})
	var wins []window
	go func() {
		defer close(done)
		tick := time.NewTicker(windowLen)
		defer tick.Stop()
		at, cpu, ops := time.Now(), cpuTime(), total()
		for stopped := false; !stopped; {
			select {
			case <-stop:
				stopped = true
			case <-tick.C:
			}
			at2, cpu2, ops2 := time.Now(), cpuTime(), total()
			// The phase may end a moment before the last tick: what is left
			// then counts as a window when it is nearly a whole one.
			if w := (window{dur: at2.Sub(at), cpu: cpu2 - cpu, ops: ops2 - ops}); !stopped || w.dur >= windowLen*9/10 {
				wins = append(wins, w)
			}
			at, cpu, ops = at2, cpu2, ops2
		}
	}()
	rec, elapsed := phase()
	close(stop)
	<-done
	return phaseRun{rec, elapsed, wins}
}

// opsPerSec is the steady figure over windows of acked operations per
// second.
func (r phaseRun) opsPerSec() float64 {
	var v []float64
	for _, w := range r.wins {
		v = append(v, float64(w.ops)/w.dur.Seconds())
	}
	if len(v) == 0 { // a phase shorter than one window
		return float64(r.acked()) / r.elapsed.Seconds()
	}
	return steady(v, false)
}

// cpuPerOp is the steady figure over windows of process CPU microseconds
// per acked operation; whole is the CPU the entire phase used, the fallback
// for a phase shorter than one window.
func (r phaseRun) cpuPerOp(whole time.Duration) float64 {
	var v []float64
	for _, w := range r.wins {
		if w.ops > 0 {
			v = append(v, us(w.cpu.Nanoseconds())/float64(w.ops))
		}
	}
	if len(v) == 0 {
		return us(whole.Nanoseconds()) / float64(max(r.acked(), 1))
	}
	return steady(v, true)
}
