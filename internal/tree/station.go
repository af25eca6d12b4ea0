package tree

import (
	"mobirep/internal/core"
	"mobirep/internal/db"
	"mobirep/internal/replica"
	"mobirep/internal/transport"
)

// Station is one stationary support station of a replica tree. The root
// owns the authoritative store and is exactly the two-node SC. A relay is
// one replica relay server (replica.NewRelay) over an in-memory mirror
// store: its sessions serve the children, and the parent face it owns
// reads through to the parent, gates the children's copies on its own
// and mirrors writes, drops and epoch fences downward.
//
// The placement table (placement.go) rides on top: it observes the
// station's read/write traffic and sheds copies the policy votes
// against, shifting cost but never correctness.
type Station struct {
	idx       int
	srv       *replica.Server
	placement Policy
}

// NewRoot wraps an existing server-side store as the tree's root
// station: the plain two-node SC.
func NewRoot(store *db.Store, mode replica.Mode, shards int) (*Station, error) {
	srv, err := replica.NewServerShards(store, mode, shards)
	if err != nil {
		return nil, err
	}
	return &Station{idx: 0, srv: srv}, nil
}

// NewRelay creates a relay station: an in-memory mirror store served by a
// relay server with the given placement policy. The parent face is wired
// separately with ConnectParent.
func NewRelay(idx int, mode replica.Mode, shards int, placement Policy) (*Station, error) {
	if err := checkPolicy(placement); err != nil {
		return nil, err
	}
	var table replica.Placement
	if placement.Kind != core.KindNone {
		table = NewTable(placement)
	}
	srv, err := replica.NewRelay(db.NewStore(), mode, shards, table)
	if err != nil {
		return nil, err
	}
	return &Station{idx: idx, srv: srv, placement: placement}, nil
}

// ConnectParent wires the station's parent face over link
// (replica.Server.ConnectParent). Call once, before child traffic needs
// the parent; later outages reuse the same client through
// Suspend/ResumeResync or Reattach (directly or via a replica.Supervisor).
func (st *Station) ConnectParent(link transport.Link) error {
	_, err := st.srv.ConnectParent(link)
	return err
}

// Server returns the child-face server (attach children and MCs here).
func (st *Station) Server() *replica.Server { return st.srv }

// Client returns the parent-face client (nil at the root) — the handle
// reconnect machinery drives.
func (st *Station) Client() *replica.Client { return st.srv.Parent() }

// Store returns the station's store: authoritative at the root, the
// warm mirror at a relay.
func (st *Station) Store() *db.Store { return st.srv.Store() }

// Placement returns the station's placement policy (none when disabled).
func (st *Station) Placement() Policy { return st.placement }
