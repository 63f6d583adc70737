package repl

import (
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/stripdb/strip/internal/obs"
	"github.com/stripdb/strip/internal/server"
	"github.com/stripdb/strip/internal/wal"
)

// writeTimeout bounds one frame write to a follower; a follower that stops
// draining its socket for this long is cut (it will reconnect and resume
// from its own LSN).
const writeTimeout = 10 * time.Second

// Shipper serves WAL streams to followers on behalf of a primary engine.
// It implements server.ReplStreamer; the stripd session layer hands it the
// connection when a REPL_STREAM frame arrives.
type Shipper struct {
	log       *wal.Log
	reg       *obs.Registry
	heartbeat time.Duration
	// mShippedBytes is the per-send instrument, resolved once.
	mShippedBytes *obs.Counter
}

// NewShipper builds a shipper over the primary's log. heartbeat <= 0 uses
// DefaultHeartbeat.
func NewShipper(log *wal.Log, reg *obs.Registry, heartbeat time.Duration) *Shipper {
	if heartbeat <= 0 {
		heartbeat = DefaultHeartbeat
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Shipper{log: log, reg: reg, heartbeat: heartbeat, mShippedBytes: reg.Counter(obs.MReplShippedBytes)}
}

// ServeStream converts conn into a WAL ship for a follower whose last
// applied LSN is fromLSN and whose newest observed fencing epoch is
// reqEpoch. It blocks until the follower disconnects, stop closes, or an
// error ends the stream. The caller (the session layer) owns closing conn.
func (sh *Shipper) ServeStream(conn net.Conn, fromLSN, reqEpoch uint64, stop <-chan struct{}) error {
	sh.reg.Counter(obs.MReplStreams).Inc()
	epoch, epochLSN := sh.log.Epoch(), sh.log.EpochLSN()
	lastLSN := sh.log.NextLSN() - 1

	// Fencing. A requester with a newer epoch has been promoted past us —
	// we are the stale peer and must not feed it history. A requester on an
	// older epoch whose log extends past our fence point carries divergent
	// frames (written under the old primary) and is refused; one at or
	// below the fence just hasn't replayed our epoch record yet and can
	// stream it like any other frame.
	switch {
	case reqEpoch > epoch:
		sh.reg.Counter(obs.MReplFenced).Inc()
		return sh.refuse(conn, server.CodeFenced,
			fmt.Sprintf("requester epoch %d is newer than primary epoch %d; this primary is stale", reqEpoch, epoch))
	case reqEpoch < epoch && fromLSN > epochLSN:
		sh.reg.Counter(obs.MReplFenced).Inc()
		return sh.refuse(conn, server.CodeFenced,
			fmt.Sprintf("epoch %d fenced at lsn %d by epoch %d; follower lsn %d is divergent, full resync required from scratch", reqEpoch, epochLSN, epoch, fromLSN))
	case fromLSN > lastLSN:
		sh.reg.Counter(obs.MReplFenced).Inc()
		return sh.refuse(conn, server.CodeFenced,
			fmt.Sprintf("follower lsn %d is ahead of primary lsn %d; divergent history", fromLSN, lastLSN))
	}

	sub, snapRaw, snapLSN, err := sh.subscribe(fromLSN)
	if err != nil {
		sh.refuse(conn, server.CodeInternal, err.Error()) //nolint:errcheck
		return err
	}
	defer sub.Cancel()

	resync := snapRaw != nil
	if err := sh.send(conn, server.FrameReplHdr, server.EncodeReplHdr(epoch, snapLSN, sub.LastLSN, resync)); err != nil {
		return err
	}
	if resync {
		sh.reg.Counter(obs.MReplShippedSnaps).Inc()
		for off := 0; ; off += server.ReplSnapChunk {
			end := off + server.ReplSnapChunk
			last := end >= len(snapRaw)
			if last {
				end = len(snapRaw)
			}
			if err := sh.send(conn, server.FrameReplSnap, server.EncodeReplSnap(snapRaw[off:end], last)); err != nil {
				return err
			}
			if last {
				break
			}
		}
	}

	// Archived frames first (already durable at subscription time), then
	// the live tap. Both are LSN-ordered with no gap or overlap: Subscribe
	// captured where history ends and registered the tap under one lock
	// acquisition.
	if err := sh.sendFrames(conn, sub.History); err != nil {
		return err
	}
	sub.History = nil // it aliases the whole log read; the stream may live long
	for {
		chunk, ok, timedOut := sub.Tap.NextTimeout(stop, sh.heartbeat)
		switch {
		case ok:
			if err := sh.sendFrames(conn, chunk); err != nil {
				return err
			}
		case timedOut:
			// Heartbeat: fresh primary LSN + wall clock, no frames. Keeps
			// the follower's lag measurement live and doubles as a dead-peer
			// probe in both directions.
			sh.reg.Counter(obs.MReplHeartbeats).Inc()
			if err := sh.send(conn, server.FrameReplBatch,
				server.EncodeReplBatch(sh.log.NextLSN()-1, time.Now().UnixMicro(), nil)); err != nil {
				return err
			}
		default:
			if sub.Tap.Lagged() {
				// The follower fell too far behind the in-memory queue; cut
				// the stream. It reconnects from its own LSN and the log (or
				// a resync) covers the distance.
				return errors.New("repl: follower lagged past the tap queue")
			}
			return nil // log closed or server stopping
		}
	}
}

// subscribe obtains a log subscription for fromLSN, falling back to a full
// resync (checkpoint bytes + subscription from the checkpoint LSN) when a
// checkpoint has truncated past fromLSN. The gap check and the snapshot
// read race concurrent checkpoints, so the resync path retries.
func (sh *Shipper) subscribe(fromLSN uint64) (sub *wal.Subscription, snapRaw []byte, snapLSN uint64, err error) {
	sub, err = sh.log.Subscribe(fromLSN)
	if err == nil {
		return sub, nil, sh.log.SnapLSN(), nil
	}
	if !errors.Is(err, wal.ErrGap) {
		return nil, nil, 0, err
	}
	for attempt := 0; attempt < 5; attempt++ {
		raw, sLSN, ok, err := sh.log.SnapshotBytes()
		if err != nil {
			return nil, nil, 0, err
		}
		if !ok {
			return nil, nil, 0, errors.New("repl: gap with no checkpoint to resync from")
		}
		sub, err = sh.log.Subscribe(sLSN)
		if err == nil {
			return sub, raw, sLSN, nil
		}
		if !errors.Is(err, wal.ErrGap) {
			return nil, nil, 0, err
		}
		// Another checkpoint landed between reading the snapshot and
		// subscribing; re-read the newer snapshot.
	}
	return nil, nil, 0, errors.New("repl: checkpoints outpaced resync subscription")
}

// sendFrames ships raw WAL frames, splitting at frame boundaries so no
// wire frame exceeds the protocol limit. A single WAL record larger than
// the wire frame cap cannot be shipped and ends the stream with an error.
func (sh *Shipper) sendFrames(conn net.Conn, frames []byte) error {
	for len(frames) > 0 {
		end := 0
		for end < len(frames) {
			_, _, _, next, ok := wal.ParseFrame(frames, end)
			if !ok {
				return fmt.Errorf("repl: corrupt frame in ship buffer at offset %d", end)
			}
			if end > 0 && next > batchTarget {
				break // keep this frame for the next batch
			}
			end = next
			if end >= batchTarget {
				break
			}
		}
		payload := server.EncodeReplBatch(sh.log.NextLSN()-1, time.Now().UnixMicro(), frames[:end])
		if len(payload)+1 > server.MaxFrame {
			return fmt.Errorf("repl: WAL record of %d bytes exceeds the wire frame limit", end)
		}
		if err := sh.send(conn, server.FrameReplBatch, payload); err != nil {
			return err
		}
		sh.mShippedBytes.Add(int64(end))
		frames = frames[end:]
	}
	return nil
}

func (sh *Shipper) send(conn net.Conn, typ byte, payload []byte) error {
	conn.SetWriteDeadline(time.Now().Add(writeTimeout)) //nolint:errcheck
	return server.WriteFrame(conn, typ, payload)
}

// refuse answers with one typed ERR frame; the connection closes after.
func (sh *Shipper) refuse(conn net.Conn, code server.Code, msg string) error {
	sh.send(conn, server.FrameErr, server.EncodeErr(code, msg)) //nolint:errcheck
	return fmt.Errorf("repl: stream refused [%s]: %s", code, msg)
}
