package offline

import "mobirep/internal/sched"

// Lookahead interpolates between the online world and the ideal offline
// algorithm: a receding-horizon player that sees the next L requests
// (including the current one) and plays the first move of an optimal plan
// for that horizon. L = 0 degenerates to a memoryless greedy; L >= len(s)
// achieves the offline optimum. The "value of foresight" experiment runs
// the sweep in between, measuring how much of the k+1 competitive gap
// each unit of lookahead buys back.
//
// The plan for a horizon is the same two-state dynamic program as Cost,
// with a zero terminal value (beyond the horizon, the player assumes
// nothing).

// LookaheadCost returns the total cost incurred by the horizon-L player
// on schedule s under costs c, starting without a copy.
func LookaheadCost(s sched.Schedule, L int, c Costs) float64 {
	if L < 0 {
		L = 0
	}
	total := 0.0
	state := 0 // copy bit at the MC
	for i := range s {
		end := i + L
		if end > len(s) {
			end = len(s)
		}
		if end == i {
			end = i + 1 // the current request is always visible
			if end > len(s) {
				end = len(s)
			}
		}
		stepCost, nextState := planFirstMove(s[i:end], state, c)
		total += stepCost
		state = nextState
	}
	return total
}

// planFirstMove solves the horizon DP and returns the cost of serving the
// first request plus the state chosen after it, under an optimal plan for
// the window.
func planFirstMove(window sched.Schedule, state int, c Costs) (float64, int) {
	// value[j][st] = optimal cost of requests window[j:] starting in st.
	n := len(window)
	// Compute backwards.
	next := [2]float64{0, 0}
	cur := [2]float64{}
	// choice[st] at j==0: the best (cost, newState) for the first step.
	var firstCost [2]float64
	var firstState [2]int
	for j := n - 1; j >= 0; j-- {
		op := window[j]
		for st := 0; st < 2; st++ {
			best := -1.0
			bestNext := st
			bestStep := 0.0
			for _, nxt := range []int{0, 1} {
				step := transitionCost(op, st, nxt, c)
				if step < 0 {
					continue // disallowed transition (none currently)
				}
				if total := step + next[nxt]; best < 0 || total < best {
					best = total
					bestNext = nxt
					bestStep = step
				}
			}
			cur[st] = best
			if j == 0 {
				firstCost[st] = bestStep
				firstState[st] = bestNext
			}
		}
		next = cur
	}
	return firstCost[state], firstState[state]
}

// transitionCost prices serving op from state st and moving to nxt: the
// one statement of the comparator's edge prices, which solve and
// planFirstMove both use (BruteForce restates them as the independent
// oracle).
func transitionCost(op sched.Op, st, nxt int, c Costs) float64 {
	cost := 0.0
	if op == sched.Read {
		if st == 0 {
			cost += c.ReadMiss
		}
		if st == 1 && nxt == 0 {
			cost += c.Dealloc
		}
		// 0 -> 1 after a miss is free: the data just flowed.
		return cost
	}
	if st == 1 {
		cost += c.WriteHit
		if nxt == 0 {
			cost += c.Dealloc
		}
		return cost
	}
	if nxt == 1 {
		cost += c.Alloc
	}
	return cost
}
