package core

import (
	"runtime"
	"testing"

	"github.com/stripdb/strip/internal/query"
)

// TestFiringAllocs holds the firing path to its allocation ceilings: one
// single-row update on a table with no rule, and on a table with one rule
// unique on one column the trigger side (what the commit hook adds to the
// update's own commit) and the action side (dequeue, transaction, empty
// action, commit, clean-up).
func TestFiringAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	price := 100.0
	update := func(db *testDB) func() {
		return func() { price++; db.setPrice("S1", price) }
	}
	bare := newTestDB(t)
	base := testing.AllocsPerRun(200, update(bare))

	db := newTestDB(t)
	db.register("noop", func(*ActionContext) error { return nil })
	db.mustCreate(&Rule{
		Name: "r", Table: "stocks", Events: []EventSpec{{Kind: Updated, Columns: []string{"price"}}},
		Condition: []*query.Select{{
			Items: []query.SelectItem{query.Item(query.QCol("new", "symbol"), ""), query.Item(query.QCol("new", "price"), "")},
			From:  []string{"new"}, Bind: "changes",
		}},
		Action: "noop", Unique: true, UniqueOn: []string{"symbol"},
	})
	fire := update(db)
	fire()
	db.drain()
	// Each firing creates a task (the one before it has run), so the two
	// sides are counted apart, firing by firing.
	var trigger, action float64
	const runs = 200
	for i := 0; i < runs; i++ {
		trigger += mallocs(fire)
		action += mallocs(db.drain)
	}
	trigger, action = trigger/runs-base, action/runs
	t.Logf("update alone %.0f allocs; trigger side +%.0f; action side +%.0f", base, trigger, action)
	if base > 6 {
		t.Errorf("the update alone allocates %.0f times, ceiling 6", base)
	}
	if trigger > 25 {
		t.Errorf("trigger side allocates %.0f per firing, ceiling 25", trigger)
	}
	if action > 30 {
		t.Errorf("action side allocates %.0f per task, ceiling 30", action)
	}
}

// mallocs counts the heap allocations of one call of f.
func mallocs(f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}
