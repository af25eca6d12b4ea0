package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"mobirep/internal/analytic"
	"mobirep/internal/core"
	"mobirep/internal/cost"
	"mobirep/internal/offline"
	"mobirep/internal/sched"
	"mobirep/internal/sim"
	"mobirep/internal/stats"
	"mobirep/internal/workload"
)

// sim_replay: no network. Twelve seeded schedules are replayed through
// seven policies under both cost models, plus the offline optimum on
// each, as tasks of simChunk requests fanned over sim.Fan with one
// worker per CPU. One full round of every task runs before the clock
// starts: it warms the pool and its totals are what verification and
// cost_per_op use, so they do not depend on where the deadline falls.
const simReplayName = "sim_replay"

type simSchedule struct {
	name  string
	theta float64 // write probability of a Bernoulli schedule, else -1
	ops   sched.Schedule
}

// Policy families, the rows of sim.ns_per_step_*.
const (
	famStatic = iota
	famSW
	famThreshold
	famOPT
	nFamilies
)

type simPolicy struct {
	name   string
	family int
	k      int // window size or threshold
	mk     func() core.Policy
}

var simPolicies = []simPolicy{
	{"ST1", famStatic, 0, func() core.Policy { return core.NewST1() }},
	{"ST2", famStatic, 0, func() core.Policy { return core.NewST2() }},
	{"SW1", famSW, 1, func() core.Policy { return core.NewSW(1) }},
	{"SW5", famSW, 5, func() core.Policy { return core.NewSW(5) }},
	{"SW15", famSW, 15, func() core.Policy { return core.NewSW(15) }},
	{"T1:4", famThreshold, 4, func() core.Policy { return core.NewT1(4) }},
	{"T2:4", famThreshold, 4, func() core.Policy { return core.NewT2(4) }},
}

var simModels = []cost.Model{cost.NewConnection(), cost.NewMessage(omega)}

const (
	modelConn = 0
	modelMsg  = 1
)

// simTask is one unit of fanned work: a chunk of a schedule through one
// policy under one model, or (policy < 0) through the offline optimum.
type simTask struct {
	sched, chunk  int
	policy, model int
}

type simBench struct {
	sz     *sizes
	scheds []simSchedule
	tasks  []simTask
	genNs  float64 // schedule generation time per request

	// Warm-up round totals by [schedule][policy][model], and the offline
	// optimum by schedule.
	cost [][][]float64
	opt  []float64
}

func buildSim(o *options) *simBench {
	sz := &o.sz
	b := &simBench{sz: sz}
	rng := stats.NewRNG(o.seed)
	t0 := nowNs()
	for _, theta := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		b.scheds = append(b.scheds, simSchedule{fmt.Sprintf("bernoulli(%.1f)", theta), theta,
			workload.Bernoulli(rng.Split(), theta, sz.simOps)})
	}
	for _, scale := range []float64{1.0 / 16, 1.0 / 4, 1, 4} {
		period := int(float64(sz.simDriftOps) * scale)
		if period < 1 {
			period = 1
		}
		ops, _ := workload.Drifting(rng.Split(), sz.simOps/period, period)
		b.scheds = append(b.scheds, simSchedule{fmt.Sprintf("drifting(%d)", period), -1, ops})
	}
	for _, cfg := range []workload.BurstyConfig{
		{ThetaA: 0.1, ThetaB: 0.9, SwitchProb: 1.0 / 64},
		{ThetaA: 0.2, ThetaB: 0.8, SwitchProb: 1.0 / 512},
		{ThetaA: 0.05, ThetaB: 0.6, SwitchProb: 1.0 / 4096},
	} {
		ops, _ := workload.Bursty(rng.Split(), cfg, sz.simOps)
		b.scheds = append(b.scheds, simSchedule{fmt.Sprintf("bursty(%g,%g,1/%g)", cfg.ThetaA, cfg.ThetaB, 1/cfg.SwitchProb), -1, ops})
	}
	var total int
	for _, s := range b.scheds {
		total += len(s.ops)
	}
	b.genNs = float64(nowNs()-t0) / float64(total)

	for s, sc := range b.scheds {
		for c := 0; c*sz.simChunk < len(sc.ops); c++ {
			for p := range simPolicies {
				for m := range simModels {
					b.tasks = append(b.tasks, simTask{s, c, p, m})
				}
			}
			b.tasks = append(b.tasks, simTask{s, c, -1, 0})
		}
	}
	// A seeded shuffle: any prefix of the order holds the same mix of
	// cheap and dear tasks, so throughput does not depend on where the
	// deadline cuts a round.
	rng.Shuffle(len(b.tasks), func(i, j int) { b.tasks[i], b.tasks[j] = b.tasks[j], b.tasks[i] })
	return b
}

func (b *simBench) chunk(t simTask) sched.Schedule {
	ops := b.scheds[t.sched].ops
	lo := t.chunk * b.sz.simChunk
	hi := lo + b.sz.simChunk
	if hi > len(ops) {
		hi = len(ops)
	}
	return ops[lo:hi]
}

func (t simTask) family() int {
	if t.policy < 0 {
		return famOPT
	}
	return simPolicies[t.policy].family
}

// run executes one task and returns its cost.
func (b *simBench) run(t simTask) float64 {
	ops := b.chunk(t)
	if t.policy < 0 {
		return offline.Cost(ops, offline.Ideal())
	}
	return sim.Replay(simPolicies[t.policy].mk(), simModels[t.model], ops, 0).Cost
}

// simPass is what one fanned pass measured.
type simPass struct {
	start, length int64 // the pass's clock window, for slicing
	slices        [passSlices]sliceRec

	lat     hist
	tasks   int64
	steps   int64
	seconds float64
	busyNs  int64 // summed task time
	famNs   [nFamilies]int64
	famStep [nFamilies]int64
	mallocs uint64
	reqs    []request
}

// round fans every task once. Tasks that would start after deadline are
// skipped (deadline 0: none are). keep stores each finished task as a
// span. It returns the per-task costs, NaN where skipped.
func (b *simBench) round(p *simPass, deadline int64, keep bool) []float64 {
	costs := make([]float64, len(b.tasks))
	start := make([]int64, len(b.tasks))
	end := make([]int64, len(b.tasks))
	sim.Fan(len(b.tasks), func(i int) {
		t0 := nowNs()
		if deadline != 0 && t0 >= deadline {
			costs[i] = math.NaN()
			return
		}
		costs[i] = b.run(b.tasks[i])
		start[i], end[i] = t0, nowNs()
	})
	for i, t := range b.tasks {
		if math.IsNaN(costs[i]) {
			continue
		}
		d := end[i] - start[i]
		n := int64(len(b.chunk(t)))
		p.lat.add(d)
		if p.length > 0 {
			s := &p.slices[sliceOf(end[i], p.start, p.length)]
			s.ops += n
			s.prim.add(d)
		}
		p.tasks++
		p.steps += n
		p.busyNs += d
		p.famNs[t.family()] += d
		p.famStep[t.family()] += n
		if keep && len(p.reqs) < traceSpansPerConn {
			name := "offline.opt"
			if t.policy >= 0 {
				name = "sim.replay." + simPolicies[t.policy].name
			}
			p.reqs = append(p.reqs, request{root: span{rootTask, start[i], end[i]},
				children: []span{{name, start[i], end[i]}}})
		}
	}
	return costs
}

// pass runs rounds until d has passed.
func (b *simBench) pass(d time.Duration, keep bool) *simPass {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	t0 := nowNs()
	p := &simPass{start: t0, length: int64(d)}
	deadline := t0 + int64(d)
	for nowNs() < deadline {
		b.round(p, deadline, keep)
	}
	p.seconds = float64(nowNs()-t0) / 1e9
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs - mallocs
	return p
}

// warm runs the complete first round and folds its costs into the
// per-cell totals.
func (b *simBench) warm() {
	b.cost = make([][][]float64, len(b.scheds))
	b.opt = make([]float64, len(b.scheds))
	for s := range b.cost {
		b.cost[s] = make([][]float64, len(simPolicies))
		for p := range b.cost[s] {
			b.cost[s][p] = make([]float64, len(simModels))
		}
	}
	costs := b.round(&simPass{}, 0, false)
	for i, t := range b.tasks {
		if t.policy < 0 {
			b.opt[t.sched] += costs[i]
		} else {
			b.cost[t.sched][t.policy][t.model] += costs[i]
		}
	}
}

// costPerOp is the message-model cost per request over every policy and
// schedule of the warm-up round.
func (b *simBench) costPerOp() float64 {
	var sum, steps float64
	for s, sc := range b.scheds {
		for p := range simPolicies {
			sum += b.cost[s][p][modelMsg]
			steps += float64(len(sc.ops))
		}
	}
	return sum / steps
}

// expected returns the closed-form cost per request of a policy on a
// Bernoulli(theta) schedule, where the paper gives one.
func expected(p simPolicy, model int, theta float64) (float64, bool) {
	switch {
	case p.name == "ST1" && model == modelConn:
		return analytic.ExpST1Conn(theta), true
	case p.name == "ST1":
		return analytic.ExpST1Msg(theta, omega), true
	case p.name == "ST2" && model == modelConn:
		return analytic.ExpST2Conn(theta), true
	case p.name == "ST2":
		return analytic.ExpST2Msg(theta), true
	case p.family == famSW && model == modelConn:
		return analytic.ExpSWConn(p.k, theta), true // Theorem 1, equation 5
	case p.family == famSW:
		return analytic.ExpSWMsg(p.k, theta, omega), true // Theorems 5 and 8
	case p.name == "T1:4" && model == modelConn:
		return analytic.ExpT1Conn(p.k, theta), true
	case p.name == "T2:4" && model == modelConn:
		return analytic.ExpT2Conn(p.k, theta), true
	}
	return 0, false
}

// verify checks the warm-up round against the paper: Bernoulli rows
// within three standard errors of the closed forms, every SWk within
// k+1 times the offline optimum, and the fused kernel equal to the
// step-by-step replay on one schedule.
func (b *simBench) verify(seed uint64) error {
	chunks := float64((b.sz.simOps + b.sz.simChunk - 1) / b.sz.simChunk)
	for s, sc := range b.scheds {
		n := float64(len(sc.ops))
		for p, pol := range simPolicies {
			for m := range simModels {
				if sc.theta < 0 {
					continue // not a Bernoulli schedule: no closed form
				}
				got := b.cost[s][p][m] / n
				if want, ok := expected(pol, m, sc.theta); ok {
					// Per-request costs are at most 1+omega and correlated
					// over about one window; each chunk also restarts the
					// policy, which perturbs a window's worth of requests.
					span := math.Max(1, float64(pol.k))
					tol := 3*(1+omega)*math.Sqrt(span/n) + chunks*span*(1+omega)/n
					if math.Abs(got-want) > tol {
						return fmt.Errorf("%s %s under %s: %.6f per request, closed form %.6f (tolerance %.6f)",
							sc.name, pol.name, simModels[m].Name(), got, want, tol)
					}
				}
			}
			if pol.family == famSW {
				bound := analytic.CompetitiveSWConn(pol.k)*b.opt[s] + chunks*float64(pol.k+1)
				if got := b.cost[s][p][modelConn]; got > bound {
					return fmt.Errorf("%s %s: %.0f connections, above %d x OPT (%.0f) plus the start-up constant", sc.name, pol.name, got, pol.k+1, b.opt[s])
				}
			}
		}
	}

	n := b.sz.simChunk
	for _, model := range simModels {
		kn, ok := sim.NewKernel(core.NewSW(5), model)
		if !ok {
			return fmt.Errorf("no fused kernel for SW5 under %s", model.Name())
		}
		fused := kn.ReplayBernoulli(stats.NewRNG(seed), 0.3, n, 0).Cost
		steps := core.Run(core.NewSW(5), workload.Bernoulli(stats.NewRNG(seed), 0.3, n))
		if plain := cost.Total(model, steps); fused != plain {
			return fmt.Errorf("fused SW5 kernel under %s: %v, core.Run + cost.Total: %v", model.Name(), fused, plain)
		}
	}
	return nil
}

func runSimReplay(o *options) (*outcome, error) {
	workers := runtime.NumCPU()
	defer sim.SetMaxWorkers(sim.SetMaxWorkers(workers))
	out := &outcome{metrics: metrics{}, detail: map[string]any{}}
	total := time.Duration(o.seconds * float64(time.Second))

	var b *simBench
	var setups []float64
	reps := o.setupReps
	if o.trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		t0 := nowNs()
		b = buildSim(o)
		setups = append(setups, float64(nowNs()-t0)/1e9)
	}
	b.warm()

	var p *simPass
	if !o.trace {
		p = b.pass(total, false)
	} else {
		// Half the baseline before the traced pass and half after, as in
		// runNetTraced.
		baseDur := time.Duration(float64(total) * baselineShare)
		base := b.pass(baseDur/2, false)
		p = b.pass(total-baseDur, true)
		base2 := b.pass(baseDur/2, false)
		base.steps += base2.steps
		base.seconds += base2.seconds
		m := out.metrics
		for _, d := range perLayer {
			m[d.name] = 0
		}
		perStep := func(f int) float64 {
			if p.famStep[f] == 0 {
				return 0
			}
			return float64(p.famNs[f]) / float64(p.famStep[f])
		}
		m["sim.ns_per_step_static"] = perStep(famStatic)
		m["sim.ns_per_step_sw"] = perStep(famSW)
		m["sim.ns_per_step_threshold"] = perStep(famThreshold)
		m["offline.opt_ns_per_req"] = perStep(famOPT)
		m["workload.gen_ns_per_req"] = b.genNs
		m["sim.fan_efficiency"] = float64(p.busyNs) / (p.seconds * 1e9 * float64(workers))
		obsProbe(m)
		baseRate, tracedRate := float64(base.steps)/base.seconds, float64(p.steps)/p.seconds
		m["trace.overhead_pct"] = 100 * (baseRate - tracedRate) / baseRate
		out.detail["baseline_ops_per_s"] = baseRate
		out.detail["traced_ops_per_s"] = tracedRate
		path, err := writeTrace(o.outDir, simReplayName, o.seed, p.tasks, 0, p.reqs)
		if err != nil {
			return nil, err
		}
		out.detail["trace_file"] = path
	}
	heap := liveHeapMB(0)
	verr := b.verify(o.seed)

	out.attempted = p.tasks
	if !o.trace {
		steps := float64(p.steps)
		rate, mean, p50, p95 := sliceStats(p.slices[:], o.seconds/passSlices)
		out.metrics["setup_s"] = median(setups)
		out.metrics["ops_per_s"] = rate
		out.metrics["op_mean_us"] = mean
		out.metrics["op_p50_us"] = p50
		out.metrics["op_p95_us"] = p95
		out.metrics["cost_per_op"] = b.costPerOp()
		out.metrics["allocs_per_op"] = float64(p.mallocs) / steps
		out.metrics["heap_mb"] = heap
		tailPct, tailNs := p.lat.tail()
		out.detail["op_samples"] = p.lat.n
		out.detail["op_tail_percentile"] = tailPct
		out.detail["op_tail_us"] = us(tailNs)
		out.detail["setup_s_runs"] = setups
	}
	out.detail["pass_seconds"] = p.seconds
	out.detail["tasks_per_round"] = len(b.tasks)
	out.correct = verr == nil
	if verr != nil {
		out.notes = append(out.notes, "verification: "+verr.Error())
	}
	return out, nil
}
