package strip

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"github.com/stripdb/strip/internal/repl"
	"github.com/stripdb/strip/internal/server"
)

// Replication errors, re-exported for errors.Is classification.
var (
	// ErrReplica marks a write (or interactive transaction) attempted on a
	// read-only replica; redirect it to the primary.
	ErrReplica = server.ErrReplica
	// ErrLagging marks a replica read refused because replication lag
	// exceeds the session's bound (or a resync is in progress). Transient:
	// back off and retry, or fall back to the primary.
	ErrLagging = server.ErrLagging
	// ErrFenced marks a replication peer rejected by a fencing epoch: its
	// history diverged from the promoted primary's. Not retryable — the
	// fenced engine needs a fresh resync from the current primary.
	ErrFenced = server.ErrFenced
)

// ReplStatus is a point-in-time view of a replica's replication state (see
// DB.ReplStatus and stripmon's /debug/repl).
type ReplStatus = repl.Status

// ReplOptions tunes replication when Config.ReplicaOf is set.
type ReplOptions struct {
	// AuthToken and Tenant are presented to the primary's handshake.
	AuthToken string
	Tenant    string
	// Heartbeat is the shipper's keep-alive interval; it bounds how stale
	// the replica's lag measurement can get while the stream is idle, and
	// stream reads time out after ~10 missed heartbeats. It is also the
	// cadence on which a replica fsyncs its own log: at most one interval of
	// applied frames is not yet durable locally. Default 100ms.
	Heartbeat time.Duration
	// DialTimeout bounds one connection attempt to the primary. Default 2s.
	DialTimeout time.Duration
}

// writable returns ErrReplica when this engine is a read-only replica.
func (db *DB) writable(op string) error {
	if db.replica.Load() {
		return fmt.Errorf("strip: %s: %w", op, ErrReplica)
	}
	return nil
}

// IsReplica reports whether this engine replays a primary's WAL (reads
// only). Promote flips it false.
func (db *DB) IsReplica() bool { return db.replica.Load() }

// ReplStatus reports the replica's replication state; ok is false on an
// engine that was never opened with Config.ReplicaOf.
func (db *DB) ReplStatus() (st ReplStatus, ok bool) {
	if db.follower == nil {
		return ReplStatus{}, false
	}
	return db.follower.Status(), true
}

// Promote turns a replica into a standalone writable primary: replication
// stops, every applied frame is made durable, a bumped fencing epoch is
// stamped durably into the local WAL after them, and writes are accepted
// from then on. The deposed primary — and any follower
// still replaying its divergent tail — is rejected by the epoch if it later
// offers or requests frames. Not reversible; to demote, reopen the engine
// with Config.ReplicaOf.
func (db *DB) Promote() (epoch uint64, err error) {
	if db.follower == nil {
		return 0, errors.New("strip: Promote on an engine that is not a replica")
	}
	if !db.replica.Load() {
		return db.wal.Epoch(), nil // already promoted
	}
	epoch, err = db.follower.Promote()
	if err != nil {
		return 0, err
	}
	// Publish the epoch record's LSN so the first post-promotion snapshot
	// (and the MVCC commit-stamp sequence) sits past everything replayed.
	db.txns.SeedLSN(db.wal.NextLSN() - 1)
	db.replica.Store(false)
	return epoch, nil
}

// replHandler serves the follower's status as JSON at stripmon's
// /debug/repl.
func (db *DB) replHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		st, _ := db.ReplStatus()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(st) //nolint:errcheck
	})
}
