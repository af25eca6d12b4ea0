package sim

import (
	"math"
	"sort"

	"mobirep/internal/core"
	"mobirep/internal/cost"
	"mobirep/internal/offline"
	"mobirep/internal/sched"
)

// Hindsight comparison: given a recorded schedule (a real trace or a
// synthetic day), rank candidate policies by what they would have cost and
// anchor them against the offline optimum. The stockticker example and
// the mobirep-trace cost subcommand are thin wrappers over this.

// Ranked is one policy's hindsight result.
type Ranked struct {
	// Name is the policy name.
	Name string
	// Cost is the policy's total cost on the schedule.
	Cost float64
	// VsOptimal is Cost divided by the ideal offline cost (Inf if the
	// offline cost is zero and Cost is not; 1 if both are zero).
	VsOptimal float64
}

// Comparison is the full hindsight report for one schedule.
type Comparison struct {
	// OptimalCost is the ideal offline algorithm's cost.
	OptimalCost float64
	// Ranked lists the candidates, cheapest first.
	Ranked []Ranked
}

// Best returns the cheapest candidate.
func (c Comparison) Best() Ranked {
	return c.Ranked[0]
}

// Compare replays the schedule through every candidate under the model
// and returns them ranked by cost. Factories are used so each candidate
// starts fresh; candidate order breaks cost ties.
func Compare(candidates []Factory, m cost.Model, s sched.Schedule) Comparison {
	opt := offline.Cost(s, offline.Ideal())
	out := Comparison{OptimalCost: opt}
	for _, f := range candidates {
		p := f()
		res := Replay(p, m, s, 0)
		r := Ranked{Name: p.Name(), Cost: res.Cost}
		switch {
		case opt > 0:
			r.VsOptimal = res.Cost / opt
		case res.Cost == 0:
			r.VsOptimal = 1
		default:
			r.VsOptimal = math.Inf(1)
		}
		out.Ranked = append(out.Ranked, r)
	}
	sort.SliceStable(out.Ranked, func(i, j int) bool {
		return out.Ranked[i].Cost < out.Ranked[j].Cost
	})
	return out
}

// BestWindow returns the window size among ks minimizing the schedule's
// cost in hindsight, with the winning cost. It is the tuning oracle for
// window-size experiments: "which k should I have used for this trace?"
func BestWindow(ks []int, m cost.Model, s sched.Schedule) (int, float64) {
	bestK, bestCost := 0, math.Inf(1)
	for _, k := range ks {
		spec := core.Spec{Kind: core.KindSW, K: k}
		if spec.Validate() != nil {
			continue
		}
		if c := Replay(spec.New(), m, s, 0).Cost; c < bestCost {
			bestK, bestCost = k, c
		}
	}
	return bestK, bestCost
}
