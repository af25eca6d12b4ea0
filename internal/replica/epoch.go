package replica

import (
	"errors"

	"mobirep/internal/obs"
	"mobirep/internal/wire"
)

// Epoch fencing. A server backed by a durable store (internal/db) bumps a
// persisted epoch on every process start and advertises it twice: as an
// AttachResp greeting on every attach (best-effort — chaos may eat it)
// and, authoritatively, on every ResyncResp. The client adopts the first
// epoch it hears and fences on any change: a different epoch means the
// authority restarted, so every warm copy, learned window, and cached
// value predates the restart and cannot be trusted — under sync=never
// the store may even have rolled back past versions this client saw.
// Fencing drops all of it and latches ErrEpochChanged; the supervisor
// answers the latch with a cold Reattach, so divergence is advertised
// and repaired instead of silently served.

// ErrEpochChanged is returned by Read while the client is fenced: the
// server's store epoch changed (the authority restarted), the warm state
// was dropped, and the client is waiting for a cold reattach.
var ErrEpochChanged = errors.New("replica: server epoch changed (authority restarted)")

// Epoch returns the server store epoch the client has adopted (0 = not
// yet learned, or an in-memory server that never announces one).
func (c *Client) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// EpochFenced reports whether the client is fenced: it observed an epoch
// change and dropped its warm state, and stays offline until a cold
// Reattach. The reconnect supervisor polls this after each resync
// attempt to decide between warm recovery and the cold restart a fence
// demands.
func (c *Client) EpochFenced() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fenced
}

// noteEpochLocked folds a server-announced epoch into the client state
// and reports whether it fenced. 0 (no epoch) is ignored; an unknown
// epoch is adopted; a matching epoch is inert; a changed epoch fences.
// Caller holds c.mu.
func (c *Client) noteEpochLocked(epoch uint64) bool {
	if epoch == 0 {
		return false
	}
	if c.epoch == 0 || c.epoch == epoch {
		c.epoch = epoch
		return false
	}
	c.fenceLocked(epoch)
	return true
}

// fenceLocked drops every warm copy: the authority restarted, so cached
// state is untrustworthy by construction. The fence latches only while
// the client is offline — that is the "stay down until a cold Reattach"
// signal the supervisor consumes; an online client (a late greeting after
// an empty resync) has nothing further to wait for once the state is
// dropped, and a latch would poison its next ordinary warm resync.
// Caller holds c.mu.
func (c *Client) fenceLocked(epoch uint64) {
	c.cache.Reset()
	if c.trackFloors {
		// A restarted authority may legitimately have rolled back; stale
		// floors would make every future read unsatisfiable.
		c.floors = make(map[string]uint64)
	}
	old := c.epoch
	c.epoch = epoch
	if c.offline {
		c.fenced = true
	}
	mEpochFences.Inc()
	obsTr.Record(obs.EvResync, "", "epoch-fence", int64(old), int64(epoch))
}

// onAttachResp handles the server's epoch greeting. Best-effort traffic:
// a lost greeting just means the client learns the epoch from the next
// ResyncResp instead.
func (c *Client) onAttachResp(msg wire.Message) {
	c.mu.Lock()
	fenced := c.noteEpochLocked(msg.Version)
	fence := c.fenceFn
	c.mu.Unlock()
	if fenced && fence != nil {
		// A relay that fenced must invalidate its subtree even when the
		// fence arrived via the greeting rather than the resync answer.
		fence()
	}
}

// sendAttachResp sends the epoch greeting to a freshly attached session.
// Liveness traffic, not metered; an in-memory store (epoch 0) sends
// nothing, which keeps epoch-less deployments wire-identical.
func (ss *Session) sendAttachResp() {
	epoch := ss.srv.store.Epoch()
	if epoch == 0 {
		return
	}
	buf := encodePooled(wire.Message{Kind: wire.KindAttachResp, Version: epoch})
	_ = ss.link.Send(buf.B)
	wire.PutBuf(buf)
}
