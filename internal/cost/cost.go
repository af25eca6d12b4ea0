// Package cost implements the paper's two communication cost models and
// the ledgers used to account for them.
//
// The connection model (cellular-style charging) prices each request in
// whole connections: a remote read is one connection (request and response
// ride the same call), a propagated write is one connection, and local
// operations are free.
//
// The message model (packet-radio-style charging) distinguishes data
// messages (cost 1) from control messages (cost omega in [0,1]): a remote
// read needs a control request plus a data response (1+omega), a
// propagated write is one data message, a write answered by deallocation
// additionally carries the delete-request control message, and SW1's
// suppressed writes send only the delete-request (omega).
package cost

import (
	"fmt"

	"mobirep/internal/core"
	"mobirep/internal/sched"
)

// Model prices a single policy step.
type Model interface {
	// Name identifies the model for reports, e.g. "connection" or
	// "message(ω=0.50)".
	Name() string
	// StepCost returns the communication cost the given step incurs. It
	// is a function of the step alone: a replay asks once per distinct
	// step and reuses the answer.
	StepCost(st core.Step) float64
}

// Connection is the connection (time-based) cost model of section 3.
type Connection struct{}

// NewConnection returns the connection cost model.
func NewConnection() Connection { return Connection{} }

// Name implements Model.
func (Connection) Name() string { return "connection" }

// StepCost implements Model. Every remote read and every write that finds
// a copy at the MC costs exactly one connection; the deallocation
// indication (or SW1's delete-request) rides that same connection, so no
// step costs more than 1.
func (Connection) StepCost(st core.Step) float64 {
	if st.Op == sched.Read {
		if st.HadCopy {
			return 0
		}
		return 1
	}
	if st.HadCopy {
		return 1
	}
	return 0
}

// Message is the message cost model of section 3 with control/data cost
// ratio Omega.
type Message struct {
	// Omega is the cost of a control message relative to a data message;
	// the paper constrains it to [0, 1].
	Omega float64
}

// NewMessage returns the message cost model with the given omega. It
// panics if omega is outside [0, 1], mirroring the paper's assumption that
// control messages are never longer than data messages.
func NewMessage(omega float64) Message {
	if omega < 0 || omega > 1 {
		panic(fmt.Sprintf("cost: omega %v outside [0,1]", omega))
	}
	return Message{Omega: omega}
}

// Name implements Model.
func (m Message) Name() string { return fmt.Sprintf("message(ω=%.2f)", m.Omega) }

// StepCost implements Model.
func (m Message) StepCost(st core.Step) float64 {
	if st.Op == sched.Read {
		if st.HadCopy {
			return 0
		}
		// Control request to the SC plus the data response. A copy
		// allocated by this read piggybacks on the response for free.
		return 1 + m.Omega
	}
	// Write.
	if !st.HadCopy {
		return 0
	}
	switch {
	case st.DataSuppressed:
		// SW1 (and T1m's phase exit): only the delete-request is sent.
		return m.Omega
	case st.Deallocated():
		// Data propagation plus the MC's delete-request back.
		return 1 + m.Omega
	default:
		// Plain propagation of the new value.
		return 1
	}
}

// Total prices a whole step trace under the model.
func Total(m Model, steps []core.Step) float64 {
	sum := 0.0
	for _, st := range steps {
		sum += m.StepCost(st)
	}
	return sum
}

// Ledger accumulates cost with a breakdown by message kind, so the
// distributed protocol's metering and the simulator can be compared
// component by component.
type Ledger struct {
	// Steps is the number of priced steps.
	Steps int
	// Total is the accumulated cost.
	Total float64
	// DataMessages counts data-bearing transmissions (read responses and
	// write propagations).
	DataMessages int
	// ControlMessages counts control transmissions (read requests and
	// delete-requests).
	ControlMessages int
	// Connections counts connection-model connections (remote reads and
	// writes that found a copy).
	Connections int
}

// Observe prices st under m and folds it into the ledger.
func (l *Ledger) Observe(m Model, st core.Step) {
	l.Steps++
	l.Total += m.StepCost(st)
	if st.Op == sched.Read {
		if !st.HadCopy {
			l.Connections++
			l.ControlMessages++ // the read request
			l.DataMessages++    // the response
		}
		return
	}
	if !st.HadCopy {
		return
	}
	l.Connections++
	if !st.DataSuppressed {
		l.DataMessages++
	}
	if st.Deallocated() {
		l.ControlMessages++ // the delete-request
	}
}

// Tally returns the ledger of a run in which the step with code c occurred
// counts[c] times and the step costs, added in request order, came to
// total. The message accounting is Observe's: each code is observed once
// and its messages are multiplied by its count.
func Tally(total float64, counts *[core.NumCodes]int) Ledger {
	l := Ledger{Total: total}
	for c, n := range counts {
		var one Ledger
		one.Observe(Connection{}, core.Code(c).Step()) // only the counters are read
		l.Steps += n
		l.DataMessages += n * one.DataMessages
		l.ControlMessages += n * one.ControlMessages
		l.Connections += n * one.Connections
	}
	return l
}

// PerStep returns the average cost per priced step.
func (l *Ledger) PerStep() float64 {
	if l.Steps == 0 {
		return 0
	}
	return l.Total / float64(l.Steps)
}

// String renders the ledger for reports.
func (l *Ledger) String() string {
	return fmt.Sprintf("steps=%d total=%.3f per-step=%.5f data=%d control=%d conns=%d",
		l.Steps, l.Total, l.PerStep(), l.DataMessages, l.ControlMessages, l.Connections)
}
