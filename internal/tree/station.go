package tree

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mobirep/internal/core"
	"mobirep/internal/db"
	"mobirep/internal/replica"
	"mobirep/internal/transport"
)

// Station is one stationary support station of a replica tree. The root
// owns the authoritative store and is exactly the two-node SC (no hooks
// installed). A relay runs the same sharded session core toward its
// children and a plain MC client toward its parent, glued together by
// the replica package's relay hooks:
//
//   - reads a child cannot serve locally arrive at the station's Server,
//     whose origin hook (fetch) resolves them through the parent face —
//     from the station's own copy when it holds one fresh enough, with
//     one upstream round trip otherwise — then folds the value into the
//     station's mirror store and answers the child;
//   - the allocation gate keeps copies contiguous: a child may hold a
//     key only while this station holds it on its parent face, so every
//     copy in the tree lives on an unbroken root-to-leaf path;
//   - writes propagate downward through the apply handler (parent-face
//     WriteProps and resync re-ships fan out to subscribed children),
//     and parent-face drops cascade as child invalidations;
//   - an epoch fence from upstream (the root restarted) invalidates the
//     whole subtree before the station serves again.
//
// The placement table (placement.go) rides on top: it observes the
// station's read/write traffic and sheds copies the policy votes
// against, shifting cost but never correctness.
type Station struct {
	idx  int
	mode replica.Mode

	store *db.Store
	srv   *replica.Server
	// cli is the parent face; nil at the root. Stored atomically because
	// the allocation gate and origin run on child delivery goroutines and
	// may fire before ConnectParent.
	cli atomic.Pointer[replica.Client]

	pmu       sync.Mutex
	placement *Table // nil = placement disabled
}

// NewRoot wraps an existing server-side store as the tree's root
// station: the plain two-node SC, no relay hooks.
func NewRoot(store *db.Store, mode replica.Mode, shards int) (*Station, error) {
	srv, err := replica.NewServerShards(store, mode, shards)
	if err != nil {
		return nil, err
	}
	return &Station{idx: 0, mode: mode, store: store, srv: srv}, nil
}

// NewRelay creates a relay station: an in-memory mirror store, a child-
// face server with the origin and allocation-gate hooks installed, and
// (optionally) a placement table. The parent face is wired separately
// with ConnectParent.
func NewRelay(idx int, mode replica.Mode, shards int, placement Policy) (*Station, error) {
	if err := checkPolicy(placement); err != nil {
		return nil, err
	}
	store := db.NewStore()
	srv, err := replica.NewServerShards(store, mode, shards)
	if err != nil {
		return nil, err
	}
	st := &Station{idx: idx, mode: mode, store: store, srv: srv}
	if placement.Kind != core.KindNone {
		st.placement = NewTable(placement)
	}
	srv.SetOrigin(st.fetch)
	srv.SetAllocGate(st.gate)
	return st, nil
}

// ConnectParent wires the station's parent face over link: the MC-side
// client with floor tracking (subtree-monotone reads) and the downward
// mirroring handlers. Call once, before child traffic needs the parent;
// later outages reuse the same client through Suspend/ResumeResync or
// Reattach (directly or via a replica.Supervisor).
func (st *Station) ConnectParent(link transport.Link) error {
	if st.cli.Load() != nil {
		return fmt.Errorf("tree: station %d already has a parent face", st.idx)
	}
	cli, err := replica.NewClient(link, st.mode)
	if err != nil {
		return err
	}
	cli.SetTrackFloors(true)
	cli.SetApplyHandler(st.onApply)
	cli.SetDropHandler(st.dropDown)
	cli.SetFenceHandler(st.onFence)
	st.cli.Store(cli)
	return nil
}

// Index returns the station's position in the topology.
func (st *Station) Index() int { return st.idx }

// Server returns the child-face server (attach children and MCs here).
func (st *Station) Server() *replica.Server { return st.srv }

// Client returns the parent-face client (nil at the root) — the handle
// reconnect machinery drives.
func (st *Station) Client() *replica.Client { return st.cli.Load() }

// Store returns the station's store: authoritative at the root, the
// warm mirror at a relay.
func (st *Station) Store() *db.Store { return st.store }

// Placement returns the station's placement policy (none when disabled).
func (st *Station) Placement() Policy {
	if st.placement == nil {
		return Policy{}
	}
	return st.placement.Policy()
}

// fetch is the origin hook: freshen the mirror for a child's read through
// the parent face, and let placement reconsider; the server then serves
// the child from the mirror. Runs on a child delivery goroutine and never
// blocks — ReadThrough completes synchronously from the station's own
// copy or registers a continuation for the upstream round trip.
func (st *Station) fetch(key string, floor uint64, done func(ok bool)) {
	st.noteRead(key)
	cli := st.cli.Load()
	if cli == nil {
		mFetchFailed.Inc()
		done(false)
		return
	}
	local := cli.HasCopy(key)
	cli.ReadThrough(key, floor, func(it db.Item, ok bool) {
		if !ok {
			mFetchFailed.Inc()
			done(false)
			return
		}
		if local {
			mFetchLocal.Inc()
		} else {
			mFetchParent.Inc()
		}
		if it.Version > 0 {
			// Mirror the fetched value: children holding copies see it as
			// a propagation; stale answers are version-guarded inert.
			if fresh, _ := st.srv.Apply(db.Item{Key: key, Value: it.Value, Version: it.Version}); fresh {
				mApplies.Inc()
			}
		}
		st.realize(key)
		done(true)
	})
}

// gate is the allocation gate: a child may hold key only while this
// station holds it upstream — the contiguity invariant. The root has no
// gate (it holds everything by definition).
func (st *Station) gate(key string) bool {
	cli := st.cli.Load()
	return cli != nil && cli.HasCopy(key)
}

// onApply mirrors a parent-face value downward: writes propagated or
// re-shipped by the parent fan out to this station's children exactly
// like a local write, and placement observes the write.
func (st *Station) onApply(it db.Item) {
	st.noteWrite(it.Key)
	if it.Version > 0 {
		if fresh, _ := st.srv.Apply(it); fresh {
			mApplies.Inc()
		}
	}
	st.realize(it.Key)
}

// dropDown cascades a parent-face copy drop: children may not hold what
// this station no longer does.
func (st *Station) dropDown(key string) {
	if n := st.srv.Invalidate(key); n > 0 {
		mInvalidations.Add(uint64(n))
	}
}

// onFence answers an upstream epoch fence: the authority restarted, so
// every copy below this station predates the restart and must go.
func (st *Station) onFence() {
	mFences.Inc()
	if n := st.srv.InvalidateAll(); n > 0 {
		mInvalidations.Add(uint64(n))
	}
}

// noteRead/noteWrite feed the placement table; realize enforces its
// vote, shedding the parent-face copy (and, through the drop cascade,
// every child copy) when the policy turns against the key.
func (st *Station) noteRead(key string) {
	if st.placement == nil {
		return
	}
	st.pmu.Lock()
	st.placement.OnRead(key)
	st.pmu.Unlock()
}

func (st *Station) noteWrite(key string) {
	if st.placement == nil {
		return
	}
	st.pmu.Lock()
	st.placement.OnWrite(key)
	st.pmu.Unlock()
}

func (st *Station) realize(key string) {
	if st.placement == nil {
		return
	}
	st.pmu.Lock()
	hold := st.placement.Holds(key)
	st.pmu.Unlock()
	if hold {
		return
	}
	cli := st.cli.Load()
	if cli != nil && cli.DropCopy(key) {
		mPlacementDrops.Inc()
	}
}
