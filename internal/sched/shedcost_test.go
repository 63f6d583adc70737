package sched

import (
	"sync/atomic"
	"testing"
)

// Under overload, shed-eligible tasks carrying a cost profile are dropped
// highest ShedCost first — not in pop order. The cheapest recompute is
// the one that survives.
func TestCostShedOrder(t *testing.T) {
	s, vc, _ := newVirtualSched(FIFO)
	s.SetOverload(Overload{ShedDepth: 2})
	var ran []float64
	var shed []float64
	mk := func(cost float64) *Task {
		return &Task{
			Name:     "recompute",
			Firm:     true,
			Deadline: 1_000,
			ShedCost: cost,
			Fn:       func(*Task) error { ran = append(ran, cost); return nil },
			OnShed:   func(*Task) { shed = append(shed, cost) },
		}
	}
	for _, c := range []float64{1, 10, 5, 2} {
		s.Submit(mk(c))
	}
	vc.AdvanceTo(5_000) // everything past deadline, depth 4 >= 2
	s.Drain()
	// The sweep sheds until below the depth trigger: 3 victims, costliest
	// first, leaving the cheapest task to run.
	if len(ran) != 1 || ran[0] != 1 {
		t.Errorf("ran %v, want [1] (cheapest survives)", ran)
	}
	if len(shed) != 3 || shed[0] != 10 || shed[1] != 5 || shed[2] != 2 {
		t.Errorf("shed %v, want [10 5 2] (costliest first)", shed)
	}
	if st := s.Stats(); st.Shed != 3 || st.Completed != 1 {
		t.Errorf("stats = %+v, want Shed=3 Completed=1", st)
	}
}

// The cost sweep respects supersession semantics: per ShedKey the
// youngest ready task always survives, and tasks that are neither past
// deadline nor superseded are not eligible no matter their cost.
func TestCostShedKeepsYoungestPerKey(t *testing.T) {
	s, vc, _ := newVirtualSched(FIFO)
	s.SetOverload(Overload{ShedDepth: 1})
	var ran, shed []string
	mk := func(id, key string, cost float64) *Task {
		return &Task{
			Name:     "recompute",
			Firm:     true,
			ShedKey:  key,
			ShedCost: cost,
			Fn:       func(*Task) error { ran = append(ran, id); return nil },
			OnShed:   func(*Task) { shed = append(shed, id) },
		}
	}
	s.Submit(mk("A1", "sym-A", 5))
	s.Submit(mk("B", "sym-B", 3))
	s.Submit(mk("A2", "sym-A", 5))
	vc.AdvanceTo(10)
	s.Drain()
	if len(shed) != 1 || shed[0] != "A1" {
		t.Errorf("shed %v, want [A1] (superseded elder only)", shed)
	}
	if len(ran) != 2 || ran[0] != "B" || ran[1] != "A2" {
		t.Errorf("ran %v, want [B A2]", ran)
	}
	s.mu.Lock()
	left := len(s.keyCounts)
	s.mu.Unlock()
	if left != 0 {
		t.Errorf("keyCounts has %d stale entries", left)
	}
}

// Tasks without a ShedCost never enter the cost sweep: a mixed queue
// sheds its costed victims by value while zero-cost tasks keep the seed
// pop-order behavior.
func TestCostShedIgnoresUncostedTasks(t *testing.T) {
	s, vc, _ := newVirtualSched(FIFO)
	s.SetOverload(Overload{ShedDepth: 3})
	var ran, shed atomic.Int64
	mk := func(cost float64) *Task {
		return &Task{
			Name:     "recompute",
			Firm:     true,
			Deadline: 1_000,
			ShedCost: cost,
			Fn:       func(*Task) error { ran.Add(1); return nil },
			OnShed:   func(*Task) { shed.Add(1) },
		}
	}
	s.Submit(mk(0))
	s.Submit(mk(0))
	s.Submit(mk(7))     // the only sweep-eligible task
	vc.AdvanceTo(5_000) // depth 3 >= 3: sweep sheds the costed task
	s.Drain()
	// Sweep drops the costed task (depth 3 -> 2, below the trigger); the
	// two uncosted tasks then run because the queue is no longer
	// overloaded when they pop.
	if got := shed.Load(); got != 1 {
		t.Errorf("shed = %d, want 1 (costed victim only)", got)
	}
	if got := ran.Load(); got != 2 {
		t.Errorf("ran = %d, want 2", got)
	}
}
