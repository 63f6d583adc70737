package lock

import (
	"sync"
	"testing"
)

// BenchmarkLockAcquireRelease measures the lock path a write takes, per
// transaction: ns/op and allocs/op of its acquires and its ReleaseAll.
func BenchmarkLockAcquireRelease(b *testing.B) {
	// One transaction: a table intent and one record lock (a single-row
	// update), then ReleaseAll.
	b.Run("IX+X", func(b *testing.B) {
		m := New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			txn := int64(i + 1)
			m.AcquireTable(txn, "stocks", IntentExclusive)            //nolint:errcheck // uncontended
			m.AcquireRecord(txn, "stocks", uint64(txn%64), Exclusive) //nolint:errcheck // uncontended
			m.ReleaseAll(txn)
		}
	})
	// Two goroutines share one table's IX and lock disjoint records (the
	// price feed's shape); ns/op is wall time over both goroutines' work.
	b.Run("SharedIX-2", func(b *testing.B) {
		m := New()
		b.ReportAllocs()
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < b.N; i += 2 {
					txn := int64(i + 1)
					m.AcquireTable(txn, "stocks", IntentExclusive)                //nolint:errcheck // compatible intents
					m.AcquireRecord(txn, "stocks", uint64(2*(i%32)+g), Exclusive) //nolint:errcheck // disjoint records
					m.ReleaseAll(txn)
				}
			}(g)
		}
		wg.Wait()
	})
	// A read-modify-write: S on the record, then the S→X upgrade.
	b.Run("Upgrade", func(b *testing.B) {
		m := New()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			txn := int64(i + 1)
			m.AcquireTable(txn, "stocks", IntentExclusive)            //nolint:errcheck // uncontended
			m.AcquireRecord(txn, "stocks", uint64(txn%64), Shared)    //nolint:errcheck // uncontended
			m.AcquireRecord(txn, "stocks", uint64(txn%64), Exclusive) //nolint:errcheck // sole holder upgrades
			m.ReleaseAll(txn)
		}
	})
}
