// Package repl is STRIP's WAL-shipping replication subsystem.
//
// A primary's Shipper serves the redo stream over the stripd wire
// protocol: a follower opens a normal authenticated session, sends
// REPL_STREAM with its last applied LSN and fencing epoch, and the
// connection becomes a one-way ship of WAL frames — exactly the bytes the
// primary's group committer made durable, published through wal.Tap only
// after a successful fsync. A Follower replays that stream through the
// recovery path (wal.ApplyRecord): no locks, no rule firings, MVCC stamps
// restored from record LSNs, with the applied LSN published as the
// snapshot horizon so lock-free snapshot reads see exactly the primary's
// committed prefix.
//
// Robustness model:
//
//   - Replica crash: the follower writes every received frame to its own
//     local WAL before applying it and fsyncs that log on the heartbeat
//     cadence (and at stream end, Close and Promote), so restart recovers
//     from its snapshot + log tail (same torn-tail truncation as a primary)
//     and resumes streaming from its own recovered LSN — after an
//     operating-system crash, at most one heartbeat behind what it had
//     served; the primary's log is the upstream backup for the difference.
//   - Primary disconnect: reconnect under a capped, jittered backoff. The stream request
//     carries the follower's LSN; replay is idempotent because frames at or
//     below it are filtered out.
//   - Gap: a primary checkpoint may truncate the log past the follower's
//     LSN. The shipper then ships its checkpoint file (REPL_SNAP chunks)
//     and the follower wipes and reloads — a full resync.
//   - Failover: Follower.Promote drains replay and stamps a bumped fencing
//     epoch into the local WAL. A stale peer (the old primary, or a
//     follower of it) presenting an older epoch with divergent LSNs is
//     refused with CodeFenced.
package repl

import "time"

// Defaults shared by shipper and follower.
const (
	// DefaultHeartbeat is the idle-stream heartbeat interval: how often the
	// shipper emits an empty REPL_BATCH so followers keep a fresh lag
	// measurement and detect dead primaries.
	DefaultHeartbeat = 100 * time.Millisecond
	// batchTarget caps raw WAL bytes per REPL_BATCH frame, comfortably
	// under the wire frame limit.
	batchTarget = 1 << 20
)
