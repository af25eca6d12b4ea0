package core

import (
	"fmt"

	"mobirep/internal/sched"
)

// AdaptiveSW resolves the paper's central tension — the average expected
// cost wants a large window, the worst case wants a small one (sections 5
// and 9) — by adapting k online instead of fixing it.
//
// The rule is congestion-control shaped:
//
//   - every allocation flip that arrives quickly after the previous one
//     (within shrinkGap*k requests) halves the window toward KMin: rapid
//     flipping is either theta near 1/2, where a big window buys nothing,
//     or an adversary, against whom a small window bounds the damage;
//   - a long flip-free stretch (growGap*k requests) doubles the window
//     toward KMax: the mix is stable, so a bigger window suppresses the
//     residual noise flips and pushes the cost toward the static optimum.
//
// Window sizes stay odd so majorities stay strict. The experiments (E17)
// measure both promises: drifting-theta AVG near SW(KMax)'s and an
// adversarial ratio near SW(KMin)'s.
type AdaptiveSW struct {
	// KMin and KMax bound the window size; both odd, KMin <= KMax.
	KMin, KMax int

	k         int
	history   Window // capacity KMax, newest KMax requests
	seen      int    // requests observed, saturating at KMax
	sinceFlip int
	sinceSize int
	hasCopy   bool
}

const (
	adaptiveShrinkGap = 2 // flips closer than shrinkGap*k halve the window
	adaptiveGrowGap   = 8 // stretches longer than growGap*k double it
)

// NewAdaptiveSW returns an adaptive window bounded by [kMin, kMax],
// starting at kMin (cautious until stability is observed).
func NewAdaptiveSW(kMin, kMax int) *AdaptiveSW {
	if kMin <= 0 || kMin%2 == 0 || kMax%2 == 0 || kMax < kMin {
		panic(fmt.Sprintf("core: adaptive window bounds [%d,%d] must be odd with kMin <= kMax", kMin, kMax))
	}
	return &AdaptiveSW{
		KMin:    kMin,
		KMax:    kMax,
		k:       kMin,
		history: NewWindow(kMax, sched.Write),
	}
}

// Name implements Policy.
func (a *AdaptiveSW) Name() string { return fmt.Sprintf("ASW(%d-%d)", a.KMin, a.KMax) }

// K returns the current effective window size.
func (a *AdaptiveSW) K() int { return a.k }

// HasCopy implements Policy.
func (a *AdaptiveSW) HasCopy() bool { return a.hasCopy }

// Apply implements Policy.
func (a *AdaptiveSW) Apply(op sched.Op) Step {
	had := a.hasCopy
	a.history.Push(op)
	if a.seen < a.KMax {
		a.seen++
	}
	a.sinceFlip++
	a.sinceSize++

	// Majority over the newest k requests (older history is retained for
	// future growth; requests before the first are the all-writes fill).
	reads := a.k - a.history.writesInNewest(a.k)
	switch {
	case op == sched.Read && reads > a.k-reads && !a.hasCopy:
		a.hasCopy = true
		a.onFlip()
	case op == sched.Write && a.k-reads > reads && a.hasCopy:
		a.hasCopy = false
		a.onFlip()
	}

	// Growth on stability.
	if a.k < a.KMax && a.sinceFlip >= adaptiveGrowGap*a.k && a.sinceSize >= adaptiveGrowGap*a.k {
		next := 2*a.k + 1
		if next > a.KMax {
			next = a.KMax
		}
		a.k = next
		a.sinceSize = 0
	}
	return step(op, had, a.hasCopy, false)
}

// onFlip applies the shrink rule at an allocation change.
func (a *AdaptiveSW) onFlip() {
	if a.sinceFlip < adaptiveShrinkGap*a.k && a.k > a.KMin {
		next := (a.k - 1) / 2
		if next%2 == 0 {
			next--
		}
		if next < a.KMin {
			next = a.KMin
		}
		a.k = next
		a.sinceSize = 0
	}
	a.sinceFlip = 0
}

// Reset implements Policy.
func (a *AdaptiveSW) Reset() {
	a.k = a.KMin
	a.history.Fill(sched.Write)
	a.seen = 0
	a.sinceFlip = 0
	a.sinceSize = 0
	a.hasCopy = false
}
