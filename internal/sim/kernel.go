package sim

// Fused replay kernels. The generic Replay/ReplayStream loop pays two
// interface dispatches per request (Policy.Apply and Model.StepCost) plus
// Step-struct traffic between them. For the hot policies of the paper's
// sweeps — the sliding-window family and the two statics — and the two
// paper cost models, the kernels below fuse policy transition, pricing and
// ledger bookkeeping into one monomorphic loop with zero allocations and
// zero dynamic dispatch per request.
//
// Correctness is pinned by TestKernelEquivalence: on identical schedules a
// kernel's Result must equal the generic Replay's field for field,
// including the float accumulation order of Ledger.Total (the kernels add
// the exact same float64 step costs in the exact same order, so totals are
// bit-identical, not merely close).

import (
	"time"

	"mobirep/internal/core"
	"mobirep/internal/cost"
	"mobirep/internal/sched"
	"mobirep/internal/stats"
)

// stepCosts are the four distinct per-request prices a fused policy can
// incur; they are precomputed once per kernel so the inner loop only adds.
// The values mirror cost.Connection.StepCost and cost.Message.StepCost.
type stepCosts struct {
	// readMiss prices a read with no copy at the MC.
	readMiss float64
	// writeKeep prices a write that finds a copy and leaves it in place.
	writeKeep float64
	// writeDealloc prices a write that finds a copy and deallocates it.
	writeDealloc float64
	// writeSuppressed prices SW1's delete-request-only write.
	writeSuppressed float64
}

// kernelCosts folds a cost model into stepCosts; ok is false for models
// the kernels do not know (custom models fall back to the generic path).
func kernelCosts(m cost.Model) (stepCosts, bool) {
	switch mm := m.(type) {
	case cost.Connection:
		return stepCosts{readMiss: 1, writeKeep: 1, writeDealloc: 1, writeSuppressed: 1}, true
	case cost.Message:
		return stepCosts{
			readMiss:        1 + mm.Omega,
			writeKeep:       1,
			writeDealloc:    1 + mm.Omega,
			writeSuppressed: mm.Omega,
		}, true
	}
	return stepCosts{}, false
}

type kernelKind uint8

const (
	kernelSW kernelKind = iota
	kernelST1
	kernelST2
)

// Kernel is a fused replay engine bound to one policy and one cost model.
// It owns its window state, so it is not safe for concurrent use; the
// estimators build one per trial (a single small allocation per trial,
// none per request). Replay methods Reset the kernel first, so a Kernel
// is reusable across trials.
type Kernel struct {
	kind  kernelKind
	costs stepCosts

	// window is the sliding-window state, starting all writes with no
	// copy (the NewSW default). The copy is the window's read majority.
	window core.Window
}

// NewKernel returns a fused kernel replaying policy p under m, or ok=false
// when no fused path exists: the policy is not one of SW (with the default
// all-writes initial window), ST1 or ST2, or the model is not one of the
// paper's two. Callers keep the generic path in that case.
func NewKernel(p core.Policy, m cost.Model) (*Kernel, bool) {
	costs, ok := kernelCosts(m)
	if !ok {
		return nil, false
	}
	switch q := p.(type) {
	case *core.ST1:
		return &Kernel{kind: kernelST1, costs: costs}, true
	case *core.ST2:
		return &Kernel{kind: kernelST2, costs: costs}, true
	case *core.SW:
		// Only the default initial window (all writes, no copy) is fused;
		// NewSWInitial variants keep the generic path.
		if q.Window() != core.NewWindow(q.K(), sched.Write) {
			return nil, false
		}
		return &Kernel{kind: kernelSW, costs: costs, window: q.Window()}, true
	}
	return nil, false
}

// Reset restores the initial state: an all-writes window and no copy
// (the statics' empty window stays empty).
func (kn *Kernel) Reset() { kn.window.Fill(sched.Write) }

// ReplayBernoulli replays n i.i.d. Bernoulli(theta) requests drawn from
// rng, pricing all but the first warmup. It consumes rng exactly like
// workload.Bernoulli, so it reproduces Replay on that schedule bit for
// bit. The kernel is Reset first.
func (kn *Kernel) ReplayBernoulli(rng *stats.RNG, theta float64, n, warmup int) Result {
	kn.Reset()
	start := time.Now()
	var res Result
	switch kn.kind {
	case kernelST1:
		res = kn.replayST1(rng, theta, 0, n, warmup)
	case kernelST2:
		res = kn.replayST2(rng, theta, 0, n, warmup)
	default:
		res = kn.replaySW(rng, theta, 0, n, warmup)
	}
	recordReplay(kn.kind, res.Ops, time.Since(start))
	return res
}

// ReplayDrifting replays the section 3 period model — theta redrawn
// uniformly per period — consuming rng exactly like workload.Drifting.
// The kernel is Reset first.
func (kn *Kernel) ReplayDrifting(rng *stats.RNG, periods, opsPerPeriod int) Result {
	kn.Reset()
	n := periods * opsPerPeriod
	start := time.Now()
	var res Result
	switch kn.kind {
	case kernelST1:
		res = kn.replayST1(rng, 0, opsPerPeriod, n, 0)
	case kernelST2:
		res = kn.replayST2(rng, 0, opsPerPeriod, n, 0)
	default:
		res = kn.replaySW(rng, 0, opsPerPeriod, n, 0)
	}
	recordReplay(kn.kind, res.Ops, time.Since(start))
	return res
}

// replaySW is the fused inner loop for the sliding-window family. A
// drift period of 0 means fixed theta; otherwise theta is redrawn every
// drift requests, starting with the first.
func (kn *Kernel) replaySW(rng *stats.RNG, theta float64, drift, n, warmup int) Result {
	var res Result
	c := kn.costs
	// The window lives in a local for the loop so its words stay in
	// registers; with odd k the copy is exactly the read majority.
	win := kn.window
	sw1 := win.Size() == 1
	has := win.ReadMajority()
	left := 0
	for i := 0; i < n; i++ {
		if drift > 0 {
			if left == 0 {
				theta = rng.Float64()
				left = drift
			}
			left--
		}
		isWrite := rng.Bernoulli(theta)
		op := sched.Read
		if isWrite {
			op = sched.Write
		}
		had := has
		win.Push(op)
		has = win.ReadMajority()

		if i < warmup {
			continue
		}
		res.Ops++
		res.Ledger.Steps++
		if had {
			res.CopySteps++
		}
		if has != had {
			if has {
				res.Allocations++
			} else {
				res.Deallocations++
			}
		}
		if isWrite {
			if had {
				res.Ledger.Connections++
				switch {
				case sw1:
					// The k == 1 delete-request optimization: a write that
					// finds a copy is priced as a bare control message.
					res.Ledger.Total += c.writeSuppressed
					res.Ledger.ControlMessages++
				case !has:
					res.Ledger.Total += c.writeDealloc
					res.Ledger.DataMessages++
					res.Ledger.ControlMessages++
				default:
					res.Ledger.Total += c.writeKeep
					res.Ledger.DataMessages++
				}
			}
		} else if !had {
			res.Ledger.Total += c.readMiss
			res.Ledger.Connections++
			res.Ledger.ControlMessages++
			res.Ledger.DataMessages++
		}
	}
	kn.window = win
	res.Cost = res.Ledger.Total
	return res
}

// replayST1 is the fused loop for the static one-copy method: the MC
// never holds a copy, so only read misses cost anything.
func (kn *Kernel) replayST1(rng *stats.RNG, theta float64, drift, n, warmup int) Result {
	var res Result
	c := kn.costs
	left := 0
	for i := 0; i < n; i++ {
		if drift > 0 {
			if left == 0 {
				theta = rng.Float64()
				left = drift
			}
			left--
		}
		isWrite := rng.Bernoulli(theta)
		if i < warmup {
			continue
		}
		res.Ops++
		res.Ledger.Steps++
		if !isWrite {
			res.Ledger.Total += c.readMiss
			res.Ledger.Connections++
			res.Ledger.ControlMessages++
			res.Ledger.DataMessages++
		}
	}
	res.Cost = res.Ledger.Total
	return res
}

// replayST2 is the fused loop for the static two-copies method: every
// request finds a copy, reads are free, writes propagate.
func (kn *Kernel) replayST2(rng *stats.RNG, theta float64, drift, n, warmup int) Result {
	var res Result
	c := kn.costs
	left := 0
	for i := 0; i < n; i++ {
		if drift > 0 {
			if left == 0 {
				theta = rng.Float64()
				left = drift
			}
			left--
		}
		isWrite := rng.Bernoulli(theta)
		if i < warmup {
			continue
		}
		res.Ops++
		res.Ledger.Steps++
		res.CopySteps++
		if isWrite {
			res.Ledger.Total += c.writeKeep
			res.Ledger.Connections++
			res.Ledger.DataMessages++
		}
	}
	res.Cost = res.Ledger.Total
	return res
}
