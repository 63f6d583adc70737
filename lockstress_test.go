package strip

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/stripdb/strip/internal/obs"
)

// Live stress over the two-level lock protocol: indexed single-row writers,
// full-table scanners, and a batch transaction that crosses the escalation
// threshold all run against the same table while the rule engine maintains
// a mirror via delta recomputes. Deadlocks between record writers and the
// escalating batch are expected and must be resolved by the detector; the
// mirror must equal the source exactly at quiescence. Run with -race this
// exercises shard routing, escalation, and the detector together.
func TestLiveRecordLockStress(t *testing.T) {
	db := MustOpen(Config{Workers: 4, LockShards: 8, EscalationThreshold: 8})
	defer db.Close()

	db.MustExec(`create table stocks (symbol text, price float)`)
	db.MustExec(`create index on stocks (symbol)`)
	db.MustExec(`create table mirror (symbol text, price float)`)
	db.MustExec(`create index on mirror (symbol)`)
	const nSym = 32
	for i := 0; i < nSym; i++ {
		db.MustExec(fmt.Sprintf(`insert into stocks values ('S%02d', 100)`, i))
		db.MustExec(fmt.Sprintf(`insert into mirror values ('S%02d', 100)`, i))
	}

	// Delta maintenance (like the paper's composite rules): summing
	// old→new diffs commutes, so the mirror converges to the source no
	// matter how concurrent tasks interleave.
	if err := db.RegisterFunc("mirror_sync", func(ctx *ActionContext) error {
		m, _ := ctx.Bound("changes")
		if m.Len() == 0 {
			return nil
		}
		sch := m.Schema()
		si := sch.ColIndex("symbol")
		oi, ni := sch.ColIndex("old_price"), sch.ColIndex("new_price")
		diff := 0.0
		for i := 0; i < m.Len(); i++ {
			diff += m.Value(i, ni).Float() - m.Value(i, oi).Float()
		}
		_, err := ExecAction(ctx, fmt.Sprintf(
			`update mirror set price += %g where symbol = '%v'`, diff, m.Value(0, si)))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	db.MustExec(`
	  create rule mirror_rule on stocks
	  when updated price
	  if select new.symbol as symbol, old.price as old_price, new.price as new_price
	     from new, old
	     where new.execute_order = old.execute_order
	     bind as changes
	  then execute mirror_sync
	  unique on symbol`)

	// retry re-runs op until it commits; lock-manager victims abort with
	// ErrDeadlock and simply try again, as a real client would.
	retry := func(op func() error) error {
		for attempt := 0; attempt < 50; attempt++ {
			if err := op(); err == nil {
				return nil
			}
		}
		return fmt.Errorf("op still failing after 50 attempts")
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 8)

	// Two indexed writers: record-granularity updates across all symbols.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				sym := (w*17 + i*5) % nSym
				price := 90 + float64((w*31+i)%41)
				if err := retry(func() error {
					_, err := db.Exec(fmt.Sprintf(
						`update stocks set price = %g where symbol = 'S%02d'`, price, sym))
					return err
				}); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}

	// One scanner: unindexed reads take the full table S.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			if err := retry(func() error {
				res, err := db.Exec(`select symbol, price from stocks`)
				if err != nil {
					return err
				}
				if len(res.Rows) != nSym {
					return fmt.Errorf("scan saw %d rows", len(res.Rows))
				}
				return nil
			}); err != nil {
				errCh <- err
				return
			}
		}
	}()

	// One batch writer: 12 distinct record locks in one transaction
	// crosses EscalationThreshold=8 and upgrades to the full table X,
	// manufacturing IX-vs-X deadlocks with the record writers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 0; round < 6; round++ {
			if err := retry(func() error {
				tx := db.Begin()
				for s := 0; s < 12; s++ {
					if _, err := db.ExecIn(tx, fmt.Sprintf(
						`update stocks set price += 0.5 where symbol = 'S%02d'`, s)); err != nil {
						tx.Abort()
						return err
					}
				}
				return tx.Commit()
			}); err != nil {
				errCh <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Settle: merging can enqueue one more round after the first drain.
	for i := 0; i < 3; i++ {
		time.Sleep(30 * time.Millisecond)
		db.WaitIdle()
	}

	st := db.Stats("mirror_sync")
	if st.TaskErrors != 0 {
		t.Fatalf("task errors: %d (restarts %d)", st.TaskErrors, st.Restarts)
	}

	want := map[string]float64{}
	res := db.MustExec(`select symbol, price from stocks`)
	for _, r := range res.Rows {
		want[r[0].Str()] = r[1].Float()
	}
	res = db.MustExec(`select symbol, price from mirror`)
	if len(res.Rows) != nSym {
		t.Fatalf("mirror has %d rows", len(res.Rows))
	}
	for _, r := range res.Rows {
		if got, wantP := r[1].Float(), want[r[0].Str()]; got != wantP {
			t.Errorf("mirror[%s] = %g, stocks = %g", r[0].Str(), got, wantP)
		}
	}

	ls := db.LockStats()
	if ls.RecordAcquires == 0 {
		t.Error("no record-granularity locks were taken")
	}
	snap := db.Metrics()
	if snap.Counters[obs.MLockEscalations] == 0 {
		t.Error("batch writer never escalated to a table lock")
	}
	if n := snap.Gauges[obs.MLockShards]; n != 8 {
		t.Errorf("the lock table has %d shards, want 8", n)
	}
}
