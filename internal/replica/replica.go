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
	"strconv"
	"strings"
	"sync/atomic"

	"mobirep/internal/core"
	"mobirep/internal/sched"
)

// Mode selects the allocation method a node pair runs for a key.
type Mode struct {
	// Kind selects the algorithm family.
	Kind ModeKind
	// K is the window size for ModeSW; it must be odd and positive.
	K int
}

// ModeKind enumerates protocol allocation methods.
type ModeKind uint8

const (
	// ModeSW runs the sliding-window algorithm SWk (SW1 when K == 1,
	// with the delete-request optimization).
	ModeSW ModeKind = iota
	// ModeStatic1 never allocates a copy at the MC (ST1).
	ModeStatic1
	// ModeStatic2 always keeps a copy at the MC (ST2): the first read
	// allocates and nothing ever deallocates.
	ModeStatic2
)

// SW returns the sliding-window mode with window size k.
func SW(k int) Mode { return Mode{Kind: ModeSW, K: k} }

// Static1 returns the ST1 mode.
func Static1() Mode { return Mode{Kind: ModeStatic1} }

// Static2 returns the ST2 mode.
func Static2() Mode { return Mode{Kind: ModeStatic2} }

// Validate reports whether the mode is well-formed (e.g. an odd positive
// window size for ModeSW). NewServer and NewClient call it; CLI parsers
// use it to reject bad modes before wiring anything up.
func (m Mode) Validate() error { return m.validate() }

func (m Mode) validate() error {
	switch m.Kind {
	case ModeSW:
		if m.K <= 0 || m.K%2 == 0 {
			return fmt.Errorf("replica: SW window size %d must be odd and positive", m.K)
		}
		if err := core.CheckWindowSize(m.K); err != nil {
			return fmt.Errorf("replica: SW %w", err)
		}
	case ModeStatic1, ModeStatic2:
	default:
		return fmt.Errorf("replica: unknown mode kind %d", m.Kind)
	}
	return nil
}

// String renders the mode like the policy names ("SW5", "ST1", "ST2").
func (m Mode) String() string {
	switch m.Kind {
	case ModeStatic1:
		return "ST1"
	case ModeStatic2:
		return "ST2"
	default:
		return fmt.Sprintf("SW%d", m.K)
	}
}

// ParseMode is the inverse of String: it accepts exactly "ST1", "ST2" and
// "SWk" for a legal window size k written without sign or leading zeros,
// so a bad mode fails at flag parsing, not at the first key touched.
func ParseMode(name string) (Mode, error) {
	switch name {
	case "ST1":
		return Static1(), nil
	case "ST2":
		return Static2(), nil
	}
	if digits, ok := strings.CutPrefix(name, "SW"); ok {
		if k, err := strconv.Atoi(digits); err == nil && strconv.Itoa(k) == digits {
			m := SW(k)
			if err := m.validate(); err != nil {
				return Mode{}, err
			}
			return m, nil
		}
	}
	return Mode{}, fmt.Errorf("unknown mode %q (want ST1, ST2 or SWk)", name)
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
	kind   ModeKind
	// hasCopy mirrors whether the MC holds a copy, from the SC's view.
	hasCopy bool
	// idx is the state's slot in its shard's key index (shard.subscribe).
	// It sits in what was padding: the state stays one 32-byte object.
	idx uint32
}

func newItemState(mode Mode) *itemState {
	st := &itemState{kind: mode.Kind}
	if mode.Kind == ModeSW {
		st.window = core.NewWindow(mode.K, sched.Write)
	}
	return st
}
