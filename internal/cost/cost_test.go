package cost

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"mobirep/internal/core"
	"mobirep/internal/sched"
)

func mkStep(op sched.Op, had, has, suppressed bool) core.Step {
	return core.Step{Op: op, HadCopy: had, HasCopy: has, DataSuppressed: suppressed}
}

func TestConnectionCosts(t *testing.T) {
	m := NewConnection()
	if m.Name() != "connection" {
		t.Fatalf("name = %q", m.Name())
	}
	cases := []struct {
		st   core.Step
		want float64
	}{
		{mkStep(sched.Read, true, true, false), 0},   // local read
		{mkStep(sched.Read, false, false, false), 1}, // remote read
		{mkStep(sched.Read, false, true, false), 1},  // remote read + allocate
		{mkStep(sched.Write, false, false, false), 0},
		{mkStep(sched.Write, true, true, false), 1},  // propagation
		{mkStep(sched.Write, true, false, false), 1}, // propagation + dealloc
		{mkStep(sched.Write, true, false, true), 1},  // SW1 delete-request
	}
	for i, c := range cases {
		if got := m.StepCost(c.st); got != c.want {
			t.Errorf("case %d: cost = %v, want %v", i, got, c.want)
		}
	}
}

func TestMessageCosts(t *testing.T) {
	const w = 0.3
	m := NewMessage(w)
	if !strings.Contains(m.Name(), "0.30") {
		t.Fatalf("name = %q", m.Name())
	}
	cases := []struct {
		st   core.Step
		want float64
	}{
		{mkStep(sched.Read, true, true, false), 0},
		{mkStep(sched.Read, false, false, false), 1 + w},
		{mkStep(sched.Read, false, true, false), 1 + w}, // allocation piggybacks
		{mkStep(sched.Write, false, false, false), 0},
		{mkStep(sched.Write, true, true, false), 1},
		{mkStep(sched.Write, true, false, false), 1 + w}, // dealloc control msg
		{mkStep(sched.Write, true, false, true), w},      // SW1 suppressed
	}
	for i, c := range cases {
		if got := m.StepCost(c.st); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: cost = %v, want %v", i, got, c.want)
		}
	}
}

func TestMessagePanicsOnBadOmega(t *testing.T) {
	for _, w := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewMessage(%v) did not panic", w)
				}
			}()
			NewMessage(w)
		}()
	}
}

func TestMessageOmegaBoundsValid(t *testing.T) {
	// omega = 0 and omega = 1 are both legal per the paper.
	NewMessage(0)
	NewMessage(1)
}

func TestConnectionEqualsMessageOmegaZeroForUnsuppressed(t *testing.T) {
	// With omega = 0 and no suppressed writes, the two models coincide.
	conn, msg := NewConnection(), NewMessage(0)
	check := func(raw []bool, hadRaw []bool) bool {
		for i, b := range raw {
			op := sched.Read
			if b {
				op = sched.Write
			}
			had := i < len(hadRaw) && hadRaw[i]
			st := mkStep(op, had, had, false)
			if conn.StepCost(st) != msg.StepCost(st) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTotalMatchesPolicyRun(t *testing.T) {
	p := core.NewSW(3)
	seq := sched.MustParse("rrrwwrwrrrwww")
	steps := core.Run(p, seq)
	m := NewMessage(0.5)
	want := 0.0
	for _, st := range steps {
		want += m.StepCost(st)
	}
	if got := Total(m, steps); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Total = %v, want %v", got, want)
	}
}

func TestLedgerBreakdown(t *testing.T) {
	m := NewMessage(0.5)
	var l Ledger
	l.Observe(m, mkStep(sched.Read, false, true, false))  // remote read: 1 ctrl + 1 data
	l.Observe(m, mkStep(sched.Read, true, true, false))   // local read: nothing
	l.Observe(m, mkStep(sched.Write, true, true, false))  // propagation: 1 data
	l.Observe(m, mkStep(sched.Write, true, false, false)) // propagation + dealloc
	l.Observe(m, mkStep(sched.Write, true, false, true))  // suppressed dealloc
	l.Observe(m, mkStep(sched.Write, false, false, false))

	if l.Steps != 6 {
		t.Fatalf("steps = %d", l.Steps)
	}
	if l.DataMessages != 3 {
		t.Fatalf("data = %d, want 3", l.DataMessages)
	}
	if l.ControlMessages != 3 {
		t.Fatalf("control = %d, want 3", l.ControlMessages)
	}
	if l.Connections != 4 {
		t.Fatalf("connections = %d, want 4", l.Connections)
	}
	want := (1 + 0.5) + 0 + 1 + (1 + 0.5) + 0.5 + 0
	if math.Abs(l.Total-want) > 1e-12 {
		t.Fatalf("total = %v, want %v", l.Total, want)
	}
	if math.Abs(l.PerStep()-want/6) > 1e-12 {
		t.Fatalf("per-step = %v", l.PerStep())
	}
	if !strings.Contains(l.String(), "steps=6") {
		t.Fatalf("String() = %q", l.String())
	}
}

func TestLedgerEmptyPerStep(t *testing.T) {
	var l Ledger
	if l.PerStep() != 0 {
		t.Fatal("empty ledger per-step should be 0")
	}
}

// TestLedgerCostDecomposition checks that for any step sequence, the
// ledger's total equals data + omega*control in the message model — the
// ledger's breakdown must be exactly the model's pricing.
func TestLedgerCostDecomposition(t *testing.T) {
	m := NewMessage(0.37)
	policies := []core.Policy{core.NewSW(1), core.NewSW(5), core.NewT1(3), core.NewT2(3), core.NewST1(), core.NewST2()}
	for _, p := range policies {
		p := p
		check := func(raw []bool) bool {
			p.Reset()
			var l Ledger
			for _, b := range raw {
				op := sched.Read
				if b {
					op = sched.Write
				}
				l.Observe(m, p.Apply(op))
			}
			want := float64(l.DataMessages) + m.Omega*float64(l.ControlMessages)
			return math.Abs(l.Total-want) < 1e-9
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
	}
}

// TestLedgerConnectionDecomposition does the same for the connection
// model: total cost must equal the connection count.
func TestLedgerConnectionDecomposition(t *testing.T) {
	m := NewConnection()
	p := core.NewSW(7)
	check := func(raw []bool) bool {
		p.Reset()
		var l Ledger
		for _, b := range raw {
			op := sched.Read
			if b {
				op = sched.Write
			}
			l.Observe(m, p.Apply(op))
		}
		return math.Abs(l.Total-float64(l.Connections)) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestTallyMatchesObserve holds the counted ledger to the observed one:
// the same steps, all sixteen codes among them, observed one by one and
// tallied from their counts, give the same ledger.
func TestTallyMatchesObserve(t *testing.T) {
	m := NewMessage(0.5) // its prices and their sums are exact
	var want Ledger
	var counts [core.NumCodes]int
	for i := 0; i < 1000; i++ {
		c := core.Code(i * 7 % core.NumCodes)
		want.Observe(m, c.Step())
		counts[c]++
	}
	if got := Tally(want.Total, &counts); got != want {
		t.Fatalf("tallied %+v, observed %+v", got, want)
	}
	if got := Tally(0, new([core.NumCodes]int)); got != (Ledger{}) {
		t.Fatalf("empty tally %+v", got)
	}
}
