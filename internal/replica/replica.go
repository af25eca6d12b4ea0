// Package replica implements the distributed data allocation protocol of
// section 4 as real communicating nodes: a Server on the stationary
// computer (SC) holding the online database, and a Client on the mobile
// computer (MC) holding the local cache.
//
// Exactly one side is "in charge" of a data item's sliding window at any
// time, as the paper observes: while the MC holds a copy, every relevant
// request reaches it (local reads, propagated writes), so the MC maintains
// the window; otherwise every relevant request reaches the SC (remote
// reads, local writes) and the SC maintains it. Ownership moves with the
// copy, and the window bits ride the allocation read-response and the
// deallocation delete-request — the piggybacking the paper describes.
//
// Per-message accounting mirrors internal/cost exactly: ReadReq and
// DeleteReq are control messages, ReadResp and WriteProp are data
// messages, and connections are counted per the connection model. The E13
// experiment drives the same request sequence through this protocol and
// through the simulator and checks the ledgers agree message for message.
package replica

import (
	"fmt"
	"sync/atomic"

	"mobirep/internal/core"
	"mobirep/internal/sched"
)

// Mode selects the allocation method a node pair runs for a key: ST1,
// ST2 or SWk (SW1 with the delete-request optimization). It is core's
// Spec; the protocol runs only those three kinds.
type Mode = core.Spec

// SW returns the sliding-window mode with window size k.
func SW(k int) Mode { return Mode{Kind: core.KindSW, K: k} }

// Static1 returns the ST1 mode.
func Static1() Mode { return Mode{Kind: core.KindST1} }

// Static2 returns the ST2 mode.
func Static2() Mode { return Mode{Kind: core.KindST2} }

// checkMode is the protocol's membership check on top of Validate.
// NewServer and NewClient call it.
func checkMode(m Mode) error {
	switch m.Kind {
	case core.KindST1, core.KindST2, core.KindSW:
		return m.Validate()
	}
	return fmt.Errorf("replica: unknown mode %v (want ST1, ST2 or SWk)", m)
}

// ParseMode is core.ParseSpec restricted to the protocol's kinds, so a bad
// mode fails at flag parsing, not at the first key touched.
func ParseMode(name string) (Mode, error) {
	m, err := core.ParseSpec(name)
	if err != nil {
		return Mode{}, err
	}
	if err := checkMode(m); err != nil {
		return Mode{}, err
	}
	return m, nil
}

// Meter counts protocol traffic on one side. Combined over both sides it
// reproduces the paper's cost models; see Ledger. The counters are
// lock-free atomics, and every add is mirrored into the per-side global
// series of the obs registry (metrics.go), so the per-instance snapshot
// the experiments diff and the process-wide /metrics view are two reads
// of the same write path and cannot drift. Read it through Snapshot.
type Meter struct {
	data    atomic.Int64 // data messages sent (ReadResp, WriteProp)
	control atomic.Int64 // control messages sent (ReadReq, DeleteReq)
	// conns counts connection-model connections initiated by this side:
	// a remote read (counted at the MC) or a write that reached out to
	// the MC (counted at the SC). The MC's deallocation delete-request
	// rides the write's connection and adds none.
	conns  atomic.Int64
	bytes  atomic.Int64 // frame payload bytes sent
	mirror *meterMirror // per-side global series; nil mirrors nowhere
}

// newMeter returns a meter that mirrors into the given side's global
// registry series.
func newMeter(mirror *meterMirror) *Meter { return &Meter{mirror: mirror} }

func (m *Meter) addData(bytes int) {
	m.data.Add(1)
	m.bytes.Add(int64(bytes))
	if m.mirror != nil {
		m.mirror.data.Inc()
		m.mirror.bytes.Add(uint64(bytes))
	}
}

func (m *Meter) addControl(bytes int) {
	m.control.Add(1)
	m.bytes.Add(int64(bytes))
	if m.mirror != nil {
		m.mirror.control.Inc()
		m.mirror.bytes.Add(uint64(bytes))
	}
}

func (m *Meter) addConnection() {
	m.conns.Add(1)
	if m.mirror != nil {
		m.mirror.conns.Inc()
	}
}

// Snapshot returns a copy of the counters.
func (m *Meter) Snapshot() MeterSnapshot {
	return MeterSnapshot{
		DataMsgs:    int(m.data.Load()),
		ControlMsgs: int(m.control.Load()),
		Connections: int(m.conns.Load()),
		Bytes:       int(m.bytes.Load()),
	}
}

// MeterSnapshot is an immutable copy of a Meter.
type MeterSnapshot struct {
	DataMsgs    int
	ControlMsgs int
	Connections int
	Bytes       int
}

// Add returns the element-wise sum, used to combine the MC and SC sides.
func (s MeterSnapshot) Add(o MeterSnapshot) MeterSnapshot {
	return MeterSnapshot{
		DataMsgs:    s.DataMsgs + o.DataMsgs,
		ControlMsgs: s.ControlMsgs + o.ControlMsgs,
		Connections: s.Connections + o.Connections,
		Bytes:       s.Bytes + o.Bytes,
	}
}

// MessageCost prices the snapshot under the message model with the given
// omega.
func (s MeterSnapshot) MessageCost(omega float64) float64 {
	return float64(s.DataMsgs) + omega*float64(s.ControlMsgs)
}

// ConnectionCost prices the snapshot under the connection model.
func (s MeterSnapshot) ConnectionCost() float64 {
	return float64(s.Connections)
}

// itemState is the SC's per-(session, key) protocol state. The MC keeps
// the same facts — copy bit and window — in its cache's record for the
// key (mobile.Cache); exactly one side trusts its window at a time.
type itemState struct {
	// window is meaningful only while this side is in charge; embedded by
	// value, so a (session, key) is this one heap object. Its size is the
	// mode's K; it is empty for the static modes.
	window core.Window
	kind   core.Kind
	// hasCopy mirrors whether the MC holds a copy, from the SC's view.
	hasCopy bool
	// idx is the state's slot in its shard's key index (shard.subscribe).
	// It sits in what was padding: the state stays one 32-byte object.
	idx uint32
}

func newItemState(mode Mode) *itemState {
	st := new(itemState)
	st.reset(mode)
	return st
}

// reset makes st the mode's fresh state: no copy, no slot, and for SWk an
// all-writes window.
func (st *itemState) reset(mode Mode) {
	*st = itemState{kind: mode.Kind}
	if mode.Kind == core.KindSW {
		st.window = core.NewWindow(mode.K, sched.Write)
	}
}
