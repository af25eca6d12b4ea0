package replica

import (
	"errors"
	"fmt"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/mobile"
	"mobirep/internal/obs"
	"mobirep/internal/transport"
	"mobirep/internal/wire"
)

// Disconnection support. Mobile computers disconnect: they move out of
// coverage, power down, or the tariff makes the user pull the plug. The
// paper assumes a connected system (availability is "handled exclusively
// within the stationary system", section 8.1), so the baseline policy is
// the conservative one its model implies:
//
//   - A disconnected MC cannot receive write propagations, so its cached
//     copies may silently go stale. Disconnect therefore drops every
//     cached copy: reads while offline fail fast with ErrOffline rather
//     than return possibly-stale data.
//   - The SC side, told of the disconnection (Session.Detach, typically
//     wired to the transport's close callback), stops propagating and
//     forgets the client's allocation state: no traffic is wasted on an
//     unreachable radio.
//   - On Reattach both sides start from the one-copy scheme with a fresh
//     all-writes window, exactly like a newly arrived client; the window
//     then re-learns the read/write mix.
//
// Cold restarts are the right answer for long partitions, but a link blip
// of seconds would throw away a warm cache and learned windows only to
// re-fetch them. The warm path — Suspend plus ResumeResync — keeps every
// copy and window across the outage and reconciles with one control
// message (the held keys and their version stamps) answered by one data
// message that revalidates current copies and re-ships only what changed.
// Until that answer arrives the client stays offline: a read in the gap
// fails (or, under AllowStale, returns the last known value explicitly
// flagged) instead of silently serving data that may have been
// overwritten while the radio was dark.

// ErrOffline is returned by Read while the client is disconnected.
var ErrOffline = errors.New("replica: client is offline")

// ErrStale flags a read served from the last known cached value while
// offline under AllowStale: the data may have been overwritten at the
// server since it was last confirmed fresh.
var ErrStale = errors.New("replica: value may be stale")

// AllowStale permits reads while offline to be served from the last
// known value — live or archived — provided it was confirmed fresh
// within maxAge. Such reads return the item together with ErrStale so
// callers can tell flagged data from a normal read. maxAge <= 0 restores
// the default fail-fast ErrOffline behaviour.
func (c *Client) AllowStale(maxAge time.Duration) {
	c.mu.Lock()
	c.staleMax = maxAge
	c.mu.Unlock()
}

// takeWaitersLocked clears and returns everything currently blocked on
// the link: the parked reads (readers' keys and relay fetches) and the
// in-flight resync signal. Every request sent so far belongs to the link
// being left, so their answers are ignored from here on (since). The
// caller must hold c.mu and fail them all after releasing it.
func (c *Client) takeWaitersLocked() (map[string]*readWaiter, chan struct{}) {
	c.since = c.seq
	pending := c.pending
	c.pending = make(map[string]*readWaiter)
	clear(c.reqs)
	c.reqs = c.reqs[:0]
	done := c.resyncDone
	c.resyncDone = nil
	return pending, done
}

// failWaiters fails every read collected by takeWaitersLocked (a reader
// gets ErrOffline, a relay refuses its child's read) and closes the resync
// signal.
func failWaiters(pending map[string]*readWaiter, done chan struct{}) {
	for _, w := range pending {
		fail(w)
	}
	if done != nil {
		close(done)
	}
}

// Disconnect takes the client offline cold: every cached copy is dropped
// (it can no longer be kept coherent) and subsequent Reads fail with
// ErrOffline until Reattach. The old link is closed. Pending reads are
// failed immediately. For short outages prefer Suspend, which keeps the
// cache warm for a ResumeResync.
func (c *Client) Disconnect() {
	c.mu.Lock()
	c.offline = true
	c.fenced = false // the cold drop below is everything a fence demands
	old := c.link
	c.link = nil
	// Drop all cached copies and allocation state.
	c.cache.Reset()
	pending, done := c.takeWaitersLocked()
	c.mu.Unlock()

	if old != nil {
		old.Close()
	}
	failWaiters(pending, done)
}

// Suspend takes the client offline warm: cached copies, windows, and
// allocation state all survive, anticipating a ResumeResync when the
// link comes back. Pending reads fail immediately; new reads fail with
// ErrOffline (or serve flagged stale data under AllowStale) until the
// resync completes. The old link is closed.
func (c *Client) Suspend() {
	c.mu.Lock()
	c.offline = true
	old := c.link
	c.link = nil
	pending, done := c.takeWaitersLocked()
	c.mu.Unlock()

	if old != nil {
		old.Close()
	}
	failWaiters(pending, done)
}

// Offline reports whether the client is currently disconnected.
func (c *Client) Offline() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.offline
}

// Reattach brings the client back online over a new link (the caller has
// dialed and, on the server side, Attached it). All keys restart in the
// one-copy scheme with fresh windows: any copy still live (a Suspend
// followed by a cold Reattach) is dropped, since the new session never
// heard of it.
//
// Reattach is also safe while still online: the old link is closed and any
// read still waiting on it fails with ErrOffline, instead of leaving a
// stale waiter that would swallow the first response meant for a read
// issued on the new link.
func (c *Client) Reattach(link transport.Link) {
	// The handler goes in before the link is published: a concurrent Read
	// may send on it the moment c.mu is released, and its response must
	// find a handler (an in-memory link refuses delivery without one, and
	// the read would wait out its whole timeout).
	link.SetHandler(c.onFrame)
	c.mu.Lock()
	old := c.link
	c.link = link
	c.offline = false
	c.fenced = false // cold restart: the fence's demand is satisfied
	c.cache.Reset()
	if c.trackFloors {
		// A cold restart starts monotonicity over: the old floors may be
		// unsatisfiable if the authority legitimately rolled back.
		c.floors = make(map[string]uint64)
	}
	pending, done := c.takeWaitersLocked()
	c.mu.Unlock()

	if old != nil && old != link {
		old.Close()
	}
	failWaiters(pending, done)
}

// ResumeResync brings a suspended client back over a new link with a
// warm resync instead of a cold restart: the client declares every copy
// it still holds — keys plus cached version stamps and, under SWk, the
// windows, sorted for deterministic framing — in one control message,
// and stays offline until the server's ResyncResp revalidates or
// refreshes them. The
// returned channel is closed when the resync attempt ends (response
// applied, or the attempt abandoned by a later Suspend, Disconnect,
// Reattach, or ResumeResync); check Offline to see whether it succeeded.
// A client holding no copies is online immediately with a closed channel
// and no traffic.
func (c *Client) ResumeResync(link transport.Link) (<-chan struct{}, error) {
	link.SetHandler(c.onFrame) // before the link is published, as in Reattach
	c.mu.Lock()
	old := c.link
	c.link = link
	keys, hints, windows := c.cache.Held()
	done := make(chan struct{})
	if len(keys) == 0 {
		c.offline = false
		// A fenced client holds no copies, so it lands here: coming back
		// online empty is exactly the cold restart the fence demanded.
		c.fenced = false
		close(done)
	} else {
		c.offline = true
	}
	epochHint := c.epoch
	pending, prevDone := c.takeWaitersLocked()
	if len(keys) > 0 {
		c.resyncDone = done
	}
	c.mu.Unlock()

	if old != nil && old != link {
		old.Close()
	}
	failWaiters(pending, prevDone)
	if len(keys) == 0 {
		mResyncImmediate.Inc()
		obsTr.Record(obs.EvResync, "", "immediate", 0, 0)
		return done, nil
	}

	// One reattachment connection, one control message for the whole
	// held set.
	c.meter.addConnection()
	// The declaration carries the epoch this state was built under (0 when
	// never learned): the server answers a dead-epoch resync with a bare
	// fence instead of re-asserting subscriptions that predate its restart.
	// Under SWk each key carries the window the MC kept for it, which the
	// stations on a new path decide the key over.
	buf := wire.GetBuf()
	frame, err := wire.AppendEncodeBatch(buf.B[:0], wire.Batch{Kind: wire.KindResyncReq, Epoch: epochHint, Keys: keys, Versions: hints, Windows: windows})
	if err != nil {
		wire.PutBuf(buf)
		return done, fmt.Errorf("replica: encode resync: %w", err)
	}
	buf.B = frame
	c.meter.addControl(len(frame))
	err = link.Send(frame)
	wire.PutBuf(buf)
	if err != nil {
		c.suspect(link, err)
		return done, err
	}
	mResyncSent.Inc()
	obsTr.Record(obs.EvResync, "", "sent", int64(len(keys)), 0)
	return done, nil
}

// onResyncResp applies the server's warm-resync answer and brings the
// client back online. Entries apply only to keys still held and are
// version-guarded, so a duplicated or reordered response (chaos) is
// inert on the copies themselves.
func (c *Client) onResyncResp(b wire.Batch) {
	var dealloc []wire.Message // key (the cache's own), window, version
	var applied []db.Item
	var notModified, reshipped int64
	c.mu.Lock()
	c.noteEpochLocked(b.Epoch)
	if c.fenced {
		// The answer names a new epoch (or an earlier AttachResp already
		// fenced this outage): the warm state is gone and the entries speak
		// for a dead incarnation. Stay offline with the fence latched — the
		// supervisor sees EpochFenced after the resync ends and reattaches
		// cold — but close the done channel so the attempt resolves.
		done := c.resyncDone
		c.resyncDone = nil
		c.mu.Unlock()
		mResyncFenced.Inc()
		obsTr.Record(obs.EvResync, "", "fenced", int64(b.Epoch), 0)
		if c.relay != nil {
			c.relay.fence()
		}
		if done != nil {
			close(done)
		}
		return
	}
	for _, e := range b.Entries {
		if e.NotModified {
			// The cached copy is current; refresh its staleness clock.
			if c.cache.Refresh(e.Key) {
				notModified++
			}
			continue
		}
		// Every write missed while away counts toward the window, just
		// as if the propagations had arrived one by one.
		it := db.Item{Key: e.Key, Value: e.Value, Version: e.Version}
		key, out, win := c.cache.Apply(it, true)
		if out == mobile.NotHeld {
			continue
		}
		reshipped++
		if out == mobile.Stale {
			continue
		}
		// b is borrowed, and the apply handler runs below, inside this
		// frame's handler: the value rides to it as-is, under the
		// cache's own key. Either list takes the whole answer's room at
		// once.
		if applied == nil {
			applied = make([]db.Item, 0, len(b.Entries))
		}
		applied = append(applied, db.Item{Key: key, Value: e.Value, Version: e.Version})
		if out == mobile.Dropped {
			// The outage turned the mix write-heavy: deallocate, handing
			// the window back to the SC.
			if dealloc == nil {
				dealloc = make([]wire.Message, 0, len(b.Entries))
			}
			dealloc = append(dealloc, wire.Message{Key: key, Window: win, Version: e.Version})
		}
	}
	c.offline = false
	done := c.resyncDone
	c.resyncDone = nil
	c.mu.Unlock()

	mResyncApplied.Inc()
	mResyncNotModified.Add(uint64(notModified))
	mResyncReshipped.Add(uint64(reshipped))
	obsTr.Record(obs.EvResync, "", "applied", notModified, reshipped)

	for _, it := range applied {
		// Re-shipped values mirror downward like live propagations.
		c.notifyApply(it)
	}
	for _, m := range dealloc {
		// Deallocations ride the resync connection: control messages,
		// no new connection.
		c.mu.Lock()
		c.deallocate(m.Key, m.Window, "resync", m.Version)
	}
	if done != nil {
		close(done)
	}
}
