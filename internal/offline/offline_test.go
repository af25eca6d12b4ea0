package offline

import (
	"math"
	"testing"
	"testing/quick"

	"mobirep/internal/sched"
)

// traceCost re-prices a schedule from an explicit state sequence using the
// same rules as BruteForce; tests use it to check Trace optimality.
func traceCost(s sched.Schedule, states []bool, c Costs) float64 {
	total := 0.0
	prev := false
	// The initial state is free; pick whatever makes the first step
	// cheapest, consistent with solve's free choice of start state.
	if len(states) > 0 {
		if s[0] == sched.Read {
			prev = true // a held copy makes the first read free
		} else {
			prev = false
		}
	}
	for i, op := range s {
		next := states[i]
		if op == sched.Read {
			if !prev {
				total += c.ReadMiss
			}
			if prev && !next {
				total += c.Dealloc
			}
		} else {
			if prev {
				total += c.WriteHit
			}
			if !prev && next {
				total += c.Alloc
			}
			if prev && !next {
				total += c.Dealloc
			}
		}
		prev = next
	}
	return total
}

func schedFromBools(raw []bool) sched.Schedule {
	s := make(sched.Schedule, len(raw))
	for i, b := range raw {
		if b {
			s[i] = sched.Write
		}
	}
	return s
}

func TestCostMatchesBruteForce(t *testing.T) {
	for _, c := range []Costs{Ideal(), Handicapped(0.5), Handicapped(1)} {
		c := c
		check := func(raw []bool) bool {
			if len(raw) > 14 {
				raw = raw[:14]
			}
			s := schedFromBools(raw)
			dp := Cost(s, c)
			bf := BruteForce(s, c)
			return math.Abs(dp-bf) < 1e-9
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("costs %+v: %v", c, err)
		}
	}
}

func TestHomogeneousSchedulesAreFree(t *testing.T) {
	c := Ideal()
	if got := Cost(sched.Block(sched.Read, 50), c); got != 0 {
		t.Fatalf("all-reads OPT = %v, want 0 (keep a copy throughout)", got)
	}
	if got := Cost(sched.Block(sched.Write, 50), c); got != 0 {
		t.Fatalf("all-writes OPT = %v, want 0 (hold no copy)", got)
	}
	if got := Cost(nil, c); got != 0 {
		t.Fatalf("empty OPT = %v", got)
	}
}

func TestCycleCosts(t *testing.T) {
	c := Ideal()
	// (r^a w^b)^N costs N-1: the first cycle is free from the right start
	// state, and every later cycle pays exactly one re-allocation read.
	for _, dims := range []struct{ a, b, n int }{{1, 1, 5}, {3, 3, 4}, {2, 5, 6}, {5, 1, 3}} {
		cycle := sched.Concat(sched.Block(sched.Read, dims.a), sched.Block(sched.Write, dims.b))
		s := cycle.Repeat(dims.n)
		want := float64(dims.n - 1)
		if got := Cost(s, c); math.Abs(got-want) > 1e-9 {
			t.Fatalf("(r^%d w^%d)^%d OPT = %v, want %v", dims.a, dims.b, dims.n, got, want)
		}
	}
}

func TestWriteFirstCycle(t *testing.T) {
	c := Ideal()
	// (w r^5)^N: keeping a copy throughout pays one propagation per cycle.
	s := sched.Concat(sched.Block(sched.Write, 1), sched.Block(sched.Read, 5)).Repeat(7)
	if got := Cost(s, c); math.Abs(got-7) > 1e-9 {
		t.Fatalf("OPT = %v, want 7", got)
	}
}

func TestHandicappedCostsMore(t *testing.T) {
	check := func(raw []bool) bool {
		s := schedFromBools(raw)
		return Cost(s, Handicapped(0.7)) >= Cost(s, Ideal())-1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceCostMatchesOptimal(t *testing.T) {
	for _, c := range []Costs{Ideal(), Handicapped(0.4)} {
		c := c
		check := func(raw []bool) bool {
			s := schedFromBools(raw)
			opt, states := Trace(s, c)
			if len(states) != len(s) {
				return false
			}
			return math.Abs(traceCost(s, states, c)-opt) < 1e-9
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatalf("costs %+v: %v", c, err)
		}
	}
}

func TestTraceFollowsPhases(t *testing.T) {
	// On r^5 w^5 the optimal trace holds the copy during reads and not
	// during writes.
	s := sched.Concat(sched.Block(sched.Read, 5), sched.Block(sched.Write, 5))
	opt, states := Trace(s, Ideal())
	if opt != 0 {
		t.Fatalf("OPT = %v, want 0", opt)
	}
	for i := 0; i < 4; i++ {
		if !states[i] {
			t.Fatalf("copy should be held during read %d", i)
		}
	}
	for i := 5; i < 10; i++ {
		if states[i] {
			t.Fatalf("copy should be dropped during write %d", i)
		}
	}
}

func TestCostMonotoneUnderExtension(t *testing.T) {
	// Appending requests can never decrease the optimal cost.
	c := Ideal()
	check := func(raw []bool) bool {
		s := schedFromBools(raw)
		for i := 1; i < len(s); i++ {
			if Cost(s[:i], c) > Cost(s[:i+1], c)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCostUpperBounds(t *testing.T) {
	// OPT never exceeds the cost of the better static strategy: reads
	// (stay copyless) or writes (hold a copy).
	c := Ideal()
	check := func(raw []bool) bool {
		s := schedFromBools(raw)
		reads, writes := s.Counts()
		bound := math.Min(float64(reads), float64(writes))
		return Cost(s, c) <= bound+1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBruteForcePanicsOnLongSchedule(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BruteForce(sched.Block(sched.Read, 21), Ideal())
}

// schedFromBits decodes the low n bits of v, oldest request first.
func schedFromBits(v uint32, n int) sched.Schedule {
	s := make(sched.Schedule, n)
	for i := range s {
		s[i] = sched.Op(v >> i & 1)
	}
	return s
}

// TestIdealClosedFormExhaustive holds Cost's closed form under Ideal costs
// to the dynamic program, to the bit, on every schedule of up to 17
// requests (both sides of the eight-request word and its tail), and to the
// brute force on every schedule of up to 10.
func TestIdealClosedFormExhaustive(t *testing.T) {
	for n := 0; n <= 17; n++ {
		for v := uint32(0); v < 1<<n; v++ {
			s := schedFromBits(v, n)
			got := Cost(s, Ideal())
			if dp, _ := solve(s, Ideal(), false); math.Float64bits(got) != math.Float64bits(dp) {
				t.Fatalf("%v: closed form %v, dynamic program %v", s, got, dp)
			}
			if n <= 10 {
				if bf := BruteForce(s, Ideal()); got != bf {
					t.Fatalf("%v: closed form %v, brute force %v", s, got, bf)
				}
			}
		}
	}
}

// TestIdealClosedFormTreatsNonReadsAsWrites: an op other than Read is a
// write to the dynamic program, so it must be one to the closed form at
// every position of a word.
func TestIdealClosedFormTreatsNonReadsAsWrites(t *testing.T) {
	for i := 0; i < 19; i++ {
		s := make(sched.Schedule, 19)
		s[i] = 0x80
		if i > 0 {
			s[i-1] = 0x7f
		}
		got := Cost(s, Ideal())
		if dp, _ := solve(s, Ideal(), false); got != dp {
			t.Fatalf("ops %v: closed form %v, dynamic program %v", s, got, dp)
		}
	}
}

// FuzzCostMatchesBruteForce lets the fuzzer pick the schedule (eight
// requests a byte, cut to n), and a handicap ω. Up to 20 requests Cost must
// equal the brute force under Ideal and Handicapped(ω) costs; at any length
// it must equal Trace's cost to the bit.
func FuzzCostMatchesBruteForce(f *testing.F) {
	f.Add(uint8(128), uint16(13), []byte("mobile"))
	f.Add(uint8(0), uint16(1000), []byte("data replication for mobile computers"))
	f.Fuzz(func(t *testing.T, omega uint8, n uint16, raw []byte) {
		s := make(sched.Schedule, 0, 8*len(raw))
		for _, b := range raw {
			for bit := 0; bit < 8; bit++ {
				s = append(s, sched.Op(b>>bit&1))
			}
		}
		s = s[:min(int(n), len(s))]
		for _, c := range []Costs{Ideal(), Handicapped(float64(omega) / 255)} {
			got := Cost(s, c)
			if tr, _ := Trace(s, c); math.Float64bits(got) != math.Float64bits(tr) {
				t.Fatalf("%d requests, costs %+v: Cost %v, Trace %v", len(s), c, got, tr)
			}
			if len(s) <= 20 {
				if bf := BruteForce(s, c); math.Abs(got-bf) > 1e-9 {
					t.Fatalf("%v, costs %+v: Cost %v, brute force %v", s, c, got, bf)
				}
			}
		}
	})
}
