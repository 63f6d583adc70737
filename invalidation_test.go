package strip

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestProgramInvalidation fires rules from four goroutines while a fifth
// drops and re-creates one of the table's rules and, every few rounds, the
// table itself under a schema that moves the watched column. A rule that
// stays installed throughout must fire exactly once per committed update:
// a firing run with a program compiled for the other schema would compare
// the wrong column and lose it (or read past a row), and a program
// snapshot published mid-commit must neither drop nor repeat a firing.
// After the churn stops, both rules fire exactly once per commit.
func TestProgramInvalidation(t *testing.T) {
	db := MustOpen(Config{Workers: 2})
	defer db.Close()
	mkTable := func(wide bool) {
		cols := []Column{{"k", "TEXT"}, {"v", "INT"}}
		if wide {
			cols = []Column{{"k", "TEXT"}, {"pad", "INT"}, {"v", "INT"}}
		}
		if err := db.CreateTable("t", cols...); err != nil {
			t.Error(err)
		}
		if err := db.CreateIndex("t", "k", "hash"); err != nil {
			t.Error(err)
		}
	}
	mkTable(false)

	var fired [2]atomic.Int64
	for i, fn := range []string{"stable_fn", "churn_fn"} {
		if err := db.RegisterFunc(fn, func(ctx *ActionContext) error {
			changed, ok := ctx.Bound("changed")
			if !ok || changed.Schema().NumCols() != 2 {
				return fmt.Errorf("bound table missing or misdefined")
			}
			fired[i].Add(int64(changed.Len()))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	rule := func(name, fn string) string {
		return fmt.Sprintf(`create rule %s on t when updated v
		  if select k, v from new bind as changed then execute %s`, name, fn)
	}
	db.MustExec(rule("stable", "stable_fn"))
	db.MustExec(rule("churn", "churn_fn"))

	// bump commits one update of k's v, inserting the row first if the
	// table has been re-created since, and reports whether it committed.
	bump := func(k string) bool {
		res, err := db.Exec(fmt.Sprintf(`update t set v += 1 where k = '%s'`, k))
		if err == nil && res.Affected == 0 {
			if _, err = db.Exec(fmt.Sprintf(`insert into t values ('%s', 1)`, k)); err != nil {
				_, err = db.Exec(fmt.Sprintf(`insert into t values ('%s', 0, 1)`, k))
			}
			return false
		}
		return err == nil && res.Affected == 1
	}

	var committed atomic.Int64
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if bump(fmt.Sprintf("w%d", w)) {
					committed.Add(1)
				}
			}
		}()
	}
	for round := 0; round < 24; round++ {
		if err := db.DropRule("churn"); err != nil {
			t.Error(err)
		}
		time.Sleep(time.Millisecond)
		if round%4 == 3 {
			if err := db.DropTable("t"); err != nil {
				t.Error(err)
			}
			mkTable(round%8 == 3)
		}
		if _, err := db.Exec(rule("churn", "churn_fn")); err != nil {
			t.Error(err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	writers.Wait()
	db.WaitIdle()
	t.Logf("%d updates committed during the churn; the churned rule saw %d", committed.Load(), fired[1].Load())
	if got, want := fired[0].Load(), committed.Load(); got != want || want == 0 {
		t.Errorf("the stable rule fired for %d rows over %d committed updates", got, want)
	}
	if got, most := fired[1].Load(), committed.Load(); got > most {
		t.Errorf("the churned rule fired for %d rows over %d committed updates", got, most)
	}

	// Commits that begin after CreateRule returned all fire, once.
	before := [2]int64{fired[0].Load(), fired[1].Load()}
	n := int64(0)
	for i := 0; i < 50; i++ {
		if bump("w0") {
			n++
		}
	}
	db.WaitIdle()
	for i, name := range []string{"stable", "churn"} {
		if got := fired[i].Load() - before[i]; got != n || n < 49 {
			t.Errorf("after the churn, rule %s fired for %d rows over %d committed updates", name, got, n)
		}
	}
	for _, fn := range []string{"stable_fn", "churn_fn"} {
		if st := db.Stats(fn); st.TaskErrors != 0 {
			t.Errorf("%s: %d task errors", fn, st.TaskErrors)
		}
	}
}
