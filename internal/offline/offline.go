// Package offline implements the paper's comparator M: the ideal offline
// data allocation algorithm that knows the whole request schedule in
// advance. Competitiveness (section 3) is defined against its cost.
//
// Because M's logic runs with complete knowledge on both computers, it
// never needs control traffic: a remote read costs one data message (the
// SC pushes the value without being asked), a write propagated to a held
// copy costs one data message, deallocation is free (the SC simply stops
// sending), and allocation is free when it rides a data transfer that is
// happening anyway (a remote read) and costs one data message otherwise.
// These conventions are exactly the ones under which every tightness claim
// in the paper (Theorems 4, 11 and 12) is achieved; see DESIGN.md. Under
// them the optimal cost is the same number in both the connection and the
// message model.
//
// Under Ideal costs the optimum has a closed form, which Cost uses: the
// number of reads that immediately follow a write. Every other Costs value,
// and Trace, go through a dynamic program over the two allocation states,
// O(m) time and O(1) space (O(m) for Trace's choices). A 2^m brute force
// over all state sequences is the test oracle for both.
package offline

import (
	"math"
	"math/bits"

	"mobirep/internal/sched"
)

// Costs parametrizes the offline comparator. The zero value is useless;
// use Ideal for the paper's comparator. Experiments also use a handicapped
// variant that pays for control messages, to show how sensitive the
// competitive ratios are to the comparator's power.
type Costs struct {
	// ReadMiss is the cost of serving a read while the MC holds no copy.
	ReadMiss float64
	// WriteHit is the cost of a write while the MC holds a copy.
	WriteHit float64
	// Alloc is the cost of allocating a copy outside a read miss (the SC
	// pushes the item spontaneously). Allocation during a read miss is
	// free: the data message is already being sent.
	Alloc float64
	// Dealloc is the cost of dropping the MC's copy. Zero for the ideal
	// comparator; a handicapped comparator pays the delete-request.
	Dealloc float64
}

// Ideal returns the paper's comparator costs: data messages cost 1,
// everything that can piggyback or be foreseen is free.
func Ideal() Costs {
	return Costs{ReadMiss: 1, WriteHit: 1, Alloc: 1, Dealloc: 0}
}

// Handicapped returns a comparator that, like the online algorithms, must
// pay omega for the read-request and delete-request control messages. It
// still knows the future. Used in ablation experiments only.
func Handicapped(omega float64) Costs {
	return Costs{ReadMiss: 1 + omega, WriteHit: 1, Alloc: 1, Dealloc: omega}
}

// Cost returns the minimum cost of serving the schedule under c, starting
// from either allocation state for free (the additive constant b in the
// competitiveness definition absorbs the initial state).
func Cost(s sched.Schedule, c Costs) float64 {
	if c == Ideal() {
		return float64(writeReadBoundaries(s))
	}
	cost, _ := solve(s, c, false)
	return cost
}

// writeReadBoundaries is the optimum under Ideal costs. There solve's two
// values, without and with a copy, are (a, a) after a read and (a, a+1)
// after a write: a read from (a, a+d) leaves both at a+d, a write leaves
// (a, a+1). So a read costs one exactly when a write came right before it,
// and a leading read is free because the start state is. The count is an
// integer, so converting it once gives the dynamic program's bits.
func writeReadBoundaries(s sched.Schedule) int {
	// Eight requests a word. The high bit of each byte of read is set when
	// that request is a read (an exact zero-byte test: no carry crosses a
	// byte), and of write<<8 | carry when the request before it was not.
	const hi, lo = 0x8080808080808080, 0x7f7f7f7f7f7f7f7f
	n := 0
	var carry uint64 // the high bit of byte 0: the last request so far was a write
	for ; len(s) >= 8; s = s[8:] {
		x := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		read := ^((x&lo + lo) | x | lo)
		write := ^read & hi
		n += bits.OnesCount64(read & (write<<8 | carry))
		carry = write >> 56
	}
	wrote := carry != 0
	for _, op := range s {
		if wrote && op == sched.Read {
			n++
		}
		wrote = op != sched.Read
	}
	return n
}

// Trace returns the minimum cost together with one optimal allocation
// state sequence: states[i] reports whether the MC holds a copy right
// after request i is served. len(states) == len(s).
func Trace(s sched.Schedule, c Costs) (float64, []bool) {
	return solve(s, c, true)
}

func solve(s sched.Schedule, c Costs, wantTrace bool) (float64, []bool) {
	// dp0/dp1: cheapest cost of the prefix ending with no copy / a copy.
	dp0, dp1 := 0.0, 0.0
	// choice[i][after] records the predecessor state that attained the
	// minimum, for trace reconstruction.
	var choice [][2]uint8
	if wantTrace {
		choice = make([][2]uint8, len(s))
	}
	for i, op := range s {
		n0, p0 := pick(dp1+transitionCost(op, 1, 0, c), dp0+transitionCost(op, 0, 0, c))
		n1, p1 := pick(dp1+transitionCost(op, 1, 1, c), dp0+transitionCost(op, 0, 1, c))
		if wantTrace {
			choice[i] = [2]uint8{p0, p1}
		}
		dp0, dp1 = n0, n1
	}
	best := math.Min(dp0, dp1)
	if !wantTrace {
		return best, nil
	}
	states := make([]bool, len(s))
	cur := uint8(0)
	if dp1 < dp0 {
		cur = 1
	}
	for i := len(s) - 1; i >= 0; i-- {
		states[i] = cur == 1
		cur = choice[i][cur]
	}
	return best, states
}

// pick returns the smaller of fromCopy (predecessor state 1) and fromNone
// (predecessor state 0) and which predecessor attained it.
func pick(fromCopy, fromNone float64) (float64, uint8) {
	if fromCopy <= fromNone {
		return fromCopy, 1
	}
	return fromNone, 0
}

// BruteForce computes the same optimum by enumerating every allocation
// state sequence. It is exponential and exists as the test oracle for
// Cost; it panics beyond 20 requests.
func BruteForce(s sched.Schedule, c Costs) float64 {
	if len(s) > 20 {
		panic("offline: brute force limited to 20 requests")
	}
	best := math.Inf(1)
	// start: initial state; mask bit i: state after request i.
	for start := 0; start < 2; start++ {
		for mask := 0; mask < 1<<len(s); mask++ {
			total := 0.0
			prev := start
			for i, op := range s {
				next := (mask >> i) & 1
				if op == sched.Read {
					if prev == 0 {
						total += c.ReadMiss
					}
					// 0 -> 1 is free after a miss; 1 -> 0 pays Dealloc.
					if prev == 1 && next == 0 {
						total += c.Dealloc
					}
				} else {
					if prev == 1 {
						total += c.WriteHit
					}
					if prev == 0 && next == 1 {
						total += c.Alloc
					}
					if prev == 1 && next == 0 {
						total += c.Dealloc
					}
				}
				prev = next
			}
			if total < best {
				best = total
			}
		}
	}
	return best
}
