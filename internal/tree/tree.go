package tree

import (
	"fmt"

	"mobirep/internal/db"
	"mobirep/internal/replica"
	"mobirep/internal/transport"
)

// LinkFactory produces the transport for one parent↔child edge of the
// tree: the end the child's client speaks on and the end the parent's
// server speaks on. Harnesses wrap each end in chaos independently.
type LinkFactory func(child, parent int) (childEnd, parentEnd transport.Link, err error)

// Tree is an assembled in-process replica tree: the root over the
// authoritative store, relays over mirrors, every edge running the
// two-node protocol.
type Tree struct {
	Topo     Topology
	Stations []*Station
	mode     replica.Mode
	// sess[i] is station i's session at its parent's server (nil for the
	// root) — the server-side half of the parent edge, needed to detach
	// cleanly when the edge is cycled or the relay is replaced.
	sess []*replica.Session
}

// Build assembles the tree described by topo: station 0 becomes the
// root over store, every other station a relay with the given placement
// policy, connected to its parent over links from connect. The client
// end is wired before the parent attach so the attach greeting finds a
// live handler.
func Build(topo Topology, store *db.Store, mode replica.Mode, shards int, placement Policy, connect LinkFactory) (*Tree, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	root, err := NewRoot(store, mode, shards)
	if err != nil {
		return nil, err
	}
	tr := &Tree{
		Topo:     topo,
		Stations: make([]*Station, topo.N()),
		mode:     mode,
		sess:     make([]*replica.Session, topo.N()),
	}
	tr.Stations[0] = root
	for i := 1; i < topo.N(); i++ {
		st, err := NewRelay(i, mode, shards, placement)
		if err != nil {
			return nil, err
		}
		tr.Stations[i] = st
		if err := tr.connectEdge(st, topo.Parent[i], connect); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

func (tr *Tree) connectEdge(st *Station, parent int, connect LinkFactory) error {
	childEnd, parentEnd, err := connect(st.idx, parent)
	if err != nil {
		return err
	}
	if err := st.ConnectParent(childEnd); err != nil {
		return err
	}
	tr.sess[st.idx] = tr.Stations[parent].srv.Attach(parentEnd)
	return nil
}

// ParentSession returns station i's session at its parent's server (nil
// for the root).
func (tr *Tree) ParentSession(i int) *replica.Session { return tr.sess[i] }

// ReconnectEdge cycles station i's parent edge warm: the old session and
// links are abandoned (in-flight frames die with them), a fresh edge
// from connect replaces them, and the relay resumes with a warm resync —
// exactly the mobile client's reconnect dance, one tree level up. The
// returned channel closes when the resync completes; if the resync
// surfaces an epoch fence, follow with ColdReconnectEdge.
func (tr *Tree) ReconnectEdge(i int, connect LinkFactory) (<-chan struct{}, error) {
	cli, childEnd, err := tr.cycleEdge(i, connect)
	if err != nil {
		return nil, err
	}
	return cli.ResumeResync(childEnd)
}

// ColdReconnectEdge cycles station i's parent edge cold: the relay
// reattaches from scratch (its warm parent-face state was dropped by the
// fence that demanded this).
func (tr *Tree) ColdReconnectEdge(i int, connect LinkFactory) error {
	cli, childEnd, err := tr.cycleEdge(i, connect)
	if err == nil {
		cli.Reattach(childEnd)
	}
	return err
}

// cycleEdge is both reconnects' shared part: it suspends station i's
// parent face, abandons its session and links, and attaches a fresh edge
// from connect at the parent. It returns the suspended client and its
// new end of the edge, for the caller to resume warm or cold.
func (tr *Tree) cycleEdge(i int, connect LinkFactory) (*replica.Client, transport.Link, error) {
	if i <= 0 || i >= tr.Topo.N() {
		return nil, nil, fmt.Errorf("tree: station %d has no parent edge", i)
	}
	cli := tr.Stations[i].Client()
	cli.Suspend()
	tr.sess[i].Detach()
	childEnd, parentEnd, err := connect(i, tr.Topo.Parent[i])
	if err != nil {
		return nil, nil, err
	}
	tr.sess[i] = tr.Stations[tr.Topo.Parent[i]].srv.Attach(parentEnd)
	return cli, childEnd, nil
}

// ReplaceRelay models a relay crash: station i is rebuilt from scratch
// (cold mirror, empty placement) and rewired to its parent over a fresh
// edge from connect. The old station's children are NOT migrated — they
// must reattach (warm resync) to the new station's server, which will
// revoke every copy the fresh relay cannot vouch for. Calling this for
// the root is an error; root restarts go through the store's own
// crash/recovery path instead.
func (tr *Tree) ReplaceRelay(i int, connect LinkFactory) (*Station, error) {
	if i <= 0 || i >= tr.Topo.N() {
		return nil, fmt.Errorf("tree: station %d is not a relay", i)
	}
	old := tr.Stations[i]
	if cli := old.Client(); cli != nil {
		cli.Disconnect()
	}
	tr.sess[i].Detach()
	st, err := NewRelay(i, tr.mode, old.srv.Shards(), old.Placement())
	if err != nil {
		return nil, err
	}
	if err := tr.connectEdge(st, tr.Topo.Parent[i], connect); err != nil {
		return nil, err
	}
	tr.Stations[i] = st
	return st, nil
}

// MC is a mobile computer attached to the tree: the ordinary two-node
// client, plus the bookkeeping Handoff needs to move it between
// stations.
type MC struct {
	tree    *Tree
	Client  *replica.Client
	station int
	sess    *replica.Session
}

// AttachMC attaches a new mobile computer at station over the given
// link ends. Floor tracking is enabled: across handoffs the MC's reads
// stay per-key monotone no matter how warm the station it lands on is.
func (tr *Tree) AttachMC(station int, mcEnd, stEnd transport.Link) (*MC, error) {
	if station < 0 || station >= tr.Topo.N() {
		return nil, fmt.Errorf("tree: no station %d", station)
	}
	cli, err := replica.NewClient(mcEnd, tr.mode)
	if err != nil {
		return nil, err
	}
	cli.SetTrackFloors(true)
	sess := tr.Stations[station].srv.Attach(stEnd)
	return &MC{tree: tr, Client: cli, station: station, sess: sess}, nil
}

// Station returns the station the MC is currently attached to.
func (m *MC) Station() int { return m.station }

// Session returns the MC's server-side session at its current station.
func (m *MC) Session() *replica.Session { return m.sess }

// Handoff moves the MC from its current station to station `to` over a
// fresh pair of link ends: suspend, detach the old session, attach at
// the target, warm resync. The MC's declared keys migrate through the
// topology's common ancestor — the target station's resync answers pull
// each key up its root path (at worst from the root itself), revalidate
// or re-ship — and under SWk the window the MC declares for each copy
// re-forms the new root-to-leaf path: every edge on it, and a placement
// SW row, decides the key over that window, so the MC keeps a copy its
// window holds wherever placement lets the path hold it.
//
// The returned channel closes when the resync completes (immediately if
// the MC held nothing). If the resync surfaces an epoch fence — the
// authority restarted while the MC was in motion — the handoff falls
// back to a cold reattach at the target and the channel is already
// closed. The caller owns pumping chaos links, if any.
func (m *MC) Handoff(to int, mcEnd, stEnd transport.Link) (<-chan struct{}, error) {
	if to < 0 || to >= m.tree.Topo.N() {
		return nil, fmt.Errorf("tree: no station %d", to)
	}
	m.Client.Suspend()
	m.sess.Detach()
	m.sess = m.tree.Stations[to].srv.Attach(stEnd)
	m.station = to
	done, err := m.Client.ResumeResync(mcEnd)
	if err != nil {
		// The new link died under us; treat as a cold arrival so the
		// caller can retry with another link.
		mHandoffsCold.Inc()
		return nil, err
	}
	mHandoffs.Inc()
	return done, nil
}

// FinishHandoff completes a handoff after its resync channel closed: if
// the resync surfaced an epoch fence (the root restarted mid-motion),
// the MC reattaches cold over the same link and starts over. Returns
// true if the arrival was warm.
func (m *MC) FinishHandoff(mcEnd transport.Link) bool {
	if !m.Client.EpochFenced() {
		return true
	}
	mHandoffsCold.Inc()
	m.Client.Reattach(mcEnd)
	return false
}
