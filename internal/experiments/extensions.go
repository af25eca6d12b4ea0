package experiments

import (
	"bytes"
	"fmt"
	"math"

	"mobirep/internal/analytic"
	"mobirep/internal/core"
	"mobirep/internal/cost"
	"mobirep/internal/db"
	"mobirep/internal/offline"
	"mobirep/internal/replica"
	"mobirep/internal/report"
	"mobirep/internal/sched"
	"mobirep/internal/sim"
	"mobirep/internal/stats"
	"mobirep/internal/transport"
	"mobirep/internal/workload"
)

// The bespoke claims beyond the paper's own evaluation (E14-E22):
// baselines from the related work, a fleet of mobile clients, cold start
// and window parity, adaptive windows, joint reads, bursty input, the
// mechanized competitive analysis, lookahead and revalidation.

// pair is one MC attached to an SC over an in-memory link, metered at
// both ends.
type pair struct {
	srv *replica.Server
	cli *replica.Client
	sc  *replica.Meter
}

// attach connects a new MC in mode to srv, or to a new SC over an empty
// store when srv is nil.
func attach(srv *replica.Server, mode replica.Mode) pair {
	if srv == nil {
		srv = must(replica.NewServer(db.NewStore(), mode))
	}
	a, b := transport.NewMemPair()
	sc := srv.Attach(a).Meter()
	return pair{srv, must(replica.NewClient(b, mode)), sc}
}

// traffic is what both ends metered.
func (p pair) traffic() replica.MeterSnapshot { return p.sc.Snapshot().Add(p.cli.Meter().Snapshot()) }

// prime writes value at the SC under n keys named by format and the key's
// index, and returns the names.
func (p pair) prime(format string, n int, value []byte) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf(format, i)
		must(p.srv.Write(names[i], value))
	}
	return names
}

// drive primes key at the SC, runs seq on it (reads at the MC, writes at
// the SC) and returns the traffic.
func (p pair) drive(key string, seq sched.Schedule) replica.MeterSnapshot {
	must(p.srv.Write(key, []byte("seed")))
	for _, op := range seq {
		if op == sched.Read {
			must(p.cli.Read(key))
		} else {
			must(p.srv.Write(key, []byte("v")))
		}
	}
	return p.traffic()
}

// asw is the adaptive window between SW3 and SW31, a policy Spec does not
// spell.
func asw() core.Policy { return core.NewAdaptiveSW(3, 31) }

// enum is s's policy as a finite state machine, for the exact chains and
// the game solver.
func enum(s core.Spec) core.Enumerable { return s.New().(core.Enumerable) }

// e14 compares the sliding windows against the CDVM-style baselines:
// callback invalidation (provably identical to SW1) and EWMA estimators,
// on all three measures.
func e14(o *out) {
	const omega = 0.5
	model := cost.NewMessage(omega)
	exp := o.table("Expected cost at fixed theta (message model, omega=0.5)",
		"theta", "SW1 exact", "CacheInv exact", "SW9 exact", "EWMA(0.05) sim", "EWMA(0.30) sim")
	for _, theta := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		row := []string{report.F(theta, 2)}
		var exact []float64
		for _, s := range specs("SW1 CacheInv SW9") {
			exact = append(exact, must(analytic.MarkovExpected(enum(s), theta, model)))
			row = append(row, report.F(exact[len(exact)-1], 4))
		}
		o.near(1e-12, exact[0], exact[1], "CacheInv against SW1 at theta "+report.F(theta, 2))
		for j, s := range specs("EWMA:0.05 EWMA:0.3") {
			got, _ := expected(150000, 10000)(o.Config, s, model, theta, o.Seed+uint64(j))
			row = append(row, report.F(got, 4))
		}
		exp.AddRow(row...)
	}
	exp.AddNote("CacheInv equals SW1 to machine precision: callback invalidation IS the window of size one")
	exp.AddNote("a slow EWMA approaches the ideal static choice at fixed theta, like a large window")

	sweep{
		Title: "Average expected cost under drifting theta", Cols: []string{"policy", "AVG sim", "closed form (if any)"},
		Grid: []float64{0}, Specs: specs("SW1 SW9 CacheInv"), Model: msgAt(omega), Predict: avg,
		Measure: drift{600, 60, 500, 200}.measure, Tol: tolAvg, Rel: true, Lag: lagAvg, Long: true,
		Row: func(_ *out, cs []cell) []string {
			return []string{cs[0].s.String(), report.F(cs[0].got, 4), report.F(cs[0].theory, 4)}
		},
	}.render(o)
	// The estimators have no closed form: their rows join the sweep's table.
	avgT, names := o.tables[len(o.tables)-1], []string{"EWMA(0.05)", "EWMA(0.30)", "EWMA(0.10, band 0.35-0.65)"}
	band := func() core.Policy { return core.NewEWMABand(0.1, 0.35, 0.65) }
	for i, f := range []sim.Factory{specs("EWMA:0.05")[0].New, specs("EWMA:0.3")[0].New, band} {
		avgT.AddRow(names[i], report.F(drift{600, 60, 500, 200}.of(o.Config, f, model, o.Seed), 4), "-")
	}

	// No competitive bound is proven for the EWMA; show its measured
	// ratio on its own adversary (pin the estimate at the threshold, then
	// alternate), which settles as the schedule grows.
	worst := o.table("Worst case: SW9 meets its bound; the EWMA's ratio on its adversary settles near 17",
		"policy", "adversary", "cycles", "measured ratio", "bound")
	cycles := o.scale(1000, 100)
	res := workload.MeasureRatio(core.NewSW(9), cost.NewConnection(), workload.SWkAdversary(9, cycles))
	o.near(tolTight*10, analytic.CompetitiveSWConn(9), res.Ratio, "SW9 on (r^5 w^5)^N")
	worst.AddRow("SW9", "(r^5 w^5)^N", report.I(cycles), report.F(res.Ratio, 3),
		report.F(analytic.CompetitiveSWConn(9), 0))
	last := math.Inf(1)
	for _, n := range []int{10, 100, o.scale(1000, 300)} {
		res := workload.MeasureRatio(core.NewEWMA(0.05), cost.NewConnection(), ewmaAdversary(0.05, n))
		o.hold(res.Ratio <= last, "EWMA(0.05) ratio grows to %.3f at %d cycles", res.Ratio, n)
		last = res.Ratio
		worst.AddRow("EWMA(0.05)", "pin-then-flip", report.I(n), report.F(res.Ratio, 3), "none proven")
	}
	worst.AddNote("on the pin-then-flip family the EWMA's ratio settles near 17 and does not grow: each cycle costs it the writes propagated until its estimate crosses 1/2 (about ln2/alpha) plus the reads served remotely until the estimate falls back, about 17 in all, while the offline optimum pays 1")
}

// ewmaAdversary builds a schedule that exploits the estimator's memory:
// read runs long enough to drive the estimate near 0, then enough writes
// to cross 0.5 (~ln2/alpha), repeated.
func ewmaAdversary(alpha float64, cycles int) sched.Schedule {
	readRun := int(3 / alpha)
	writeRun := int(0.8/alpha) + 1
	cycle := sched.Concat(sched.Block(sched.Read, readRun), sched.Block(sched.Write, writeRun))
	return cycle.Repeat(cycles)
}

// e15 runs one SC against a fleet of MCs with heterogeneous read rates:
// each MC's measured cost must match its own theta's closed form, the
// per-(client, key) independence the protocol promises.
func e15(o *out) {
	const k, omega = 5, 0.5
	t := o.table("Fleet of mobile clients, one stationary computer (SW5, message model)",
		"client", "theta (own mix)", "requests", "measured cost/request", "EXP theory", "abs error")
	srv := must(replica.NewServer(db.NewStore(), replica.SW(k)))
	must(srv.Write("x", []byte("seed")))
	// Each MC reads its own key, so its relevant-request stream has
	// exactly its own theta.
	ops := o.scale(30000, 3000)
	for ci, theta := range []float64{0.15, 0.35, 0.5, 0.65, 0.85} {
		seq := workload.Bernoulli(stats.NewRNG(o.Seed+uint64(ci)), theta, ops)
		perOp := attach(srv, replica.SW(k)).drive(fmt.Sprintf("item-%d", ci), seq).MessageCost(omega) / float64(ops)
		theory := analytic.ExpSWMsg(k, theta, omega)
		gap := o.near(tolProtocol, theory, perOp, fmt.Sprintf("fleet MC-%d", ci))
		t.AddRow(fmt.Sprintf("MC-%d", ci), report.F(theta, 2), report.I(ops),
			report.F(perOp, 4), report.F(theory, 4), report.F(gap, 4))
	}
	t.AddNote("every client converges to its own theta's expected cost; windows are per-(client,key)")
	t.AddNote("writes to a key propagate only to the clients currently holding that key's copy")
}

// e16 quantifies two things the paper assumes away: how long the
// cold-start transient lasts (initial window all-writes vs all-reads) and
// what even window sizes with tie-holding would do. Both are exact.
func e16(o *out) {
	model := cost.NewConnection()
	const theta = 0.3
	trans := o.table("Cold-start transient of SW9 at theta=0.3 (exact, connection model)",
		"request #", "EXP from all-writes window", "EXP from all-reads window", "steady state")
	cw := must(analytic.BuildChain(core.NewSW(9), theta, model, 0))
	cr := must(analytic.BuildChain(core.NewSWInitial(9, sched.Read), theta, model, 0))
	steady := cw.SteadyCost()
	tw, tr := cw.TransientCosts(128), cr.TransientCosts(128)
	for _, i := range []int{0, 1, 3, 7, 15, 31, 63, 127} {
		if i >= 2*9 {
			o.near(1e-4, steady, tw[i], "SW9 from all writes after "+report.I(i+1)+" requests")
			o.near(1e-4, steady, tr[i], "SW9 from all reads after "+report.I(i+1)+" requests")
		}
		trans.AddRow(report.I(i+1), report.F(tw[i], 5), report.F(tr[i], 5), report.F(steady, 5))
	}
	trans.AddNote("both starts converge to the same steady state within ~2 window lengths; the paper's transient-free analysis is justified")

	parity := o.table("Even windows with tie-holding vs the paper's odd windows (exact)",
		"theta", "SW3", "SWe4 (tie holds)", "SW5", "states SWe4")
	states := must(analytic.BuildChain(core.NewEvenSW(4), 0.2, model, 0)).States()
	for _, th := range []float64{0.2, 0.35, 0.5, 0.65, 0.8} {
		even := must(analytic.MarkovExpected(core.NewEvenSW(4), th, model))
		sw3, sw5 := analytic.ExpSWConn(3, th), analytic.ExpSWConn(5, th)
		o.hold(even <= min(sw3, sw5)+1e-12, "SWe4 at theta %v costs %v, above SW3 %v or SW5 %v", th, even, sw3, sw5)
		parity.AddRow(report.F(th, 2), report.F(sw3, 5), report.F(even, 5), report.F(sw5, 5), report.I(states))
	}
	parity.AddNote("tie-holding makes the allocation path-dependent (the copy bit joins the state: 2^4 windows x copy, 22 reachable)")
	parity.AddNote("the tie-holding even window slightly BEATS both odd neighbours at fixed theta: holding on a tie is hysteresis, which reduces allocation flapping — a small finding the paper's odd-k restriction leaves on the table")
}

// e17 evaluates the adaptive window against fixed windows on both horns
// of the paper's trade-off: AVG under drifting theta (where a large fixed
// k wins) and the adversarial flip-flop schedule (where a small one
// wins). The adaptive policy should land near the better fixed window on
// each, which no single fixed k can do.
func e17(o *out) {
	model := cost.NewConnection()
	avgT := o.table("Drifting-theta AVG (connection model)", "policy", "AVG sim", "fixed-k closed form")
	var got [3]float64
	for i, s := range specs("SW3 SW31") {
		got[i] = drift{600, 60, 800, 300}.of(o.Config, s.New, model, o.Seed)
		o.near(tolAvg*avg(s, model, 0)+lagAvg*float64(s.K), avg(s, model, 0), got[i], "drifting AVG of "+s.String())
		avgT.AddRow(s.String()+[]string{" (= kMin)", " (= kMax)"}[i], report.F(got[i], 4), report.F(avg(s, model, 0), 4))
	}
	got[2] = drift{600, 60, 800, 300}.of(o.Config, asw, model, o.Seed)
	avgT.AddRow("ASW(3-31)", report.F(got[2], 4), "-")
	avgT.AddNote("adaptive AVG %.4f sits between SW31 (%.4f) and SW3 (%.4f), close to the large window", got[2], got[1], got[0])

	cycles := o.scale(2000, 200)
	worst := o.table("Adversarial flip-flop schedules (connection model)",
		"policy", "schedule", "measured ratio", "fixed-k bound")
	for _, r := range []struct {
		p     core.Policy
		bound float64 // 0: the adaptive window has none
	}{{core.NewSW(3), 4}, {core.NewSW(31), 32}, {asw(), 0}} {
		// Each policy on both adversary families; report the worse.
		r3 := workload.MeasureRatio(r.p, model, workload.SWkAdversary(3, cycles))
		r31 := workload.MeasureRatio(r.p, model, workload.SWkAdversary(31, cycles/8+1))
		ratio, which, bound := r3.Ratio, "(r^2 w^2)^N", "adapts"
		if r31.Ratio > ratio {
			ratio, which = r31.Ratio, "(r^16 w^16)^N"
		}
		if r.bound > 0 {
			bound = report.F(r.bound, 0)
			o.near(tolTight*r.bound, r.bound, ratio, r.p.Name()+" on the flip-flop families")
		}
		worst.AddRow(r.p.Name(), which, report.F(ratio, 3), bound)
	}
	worst.AddNote("the adaptive policy's worst measured ratio stays near the small window's bound, while SW31 pays up to 32 on its own family")
}

// e18 measures the message savings of ReadMany on a correlated access
// pattern: a watch-list refresh reads a group of keys together.
func e18(o *out) {
	steps := o.scale(20000, 2000)
	// costs is the message cost of one workload of group-key refreshes,
	// read by singletons and by joint reads.
	costs := func(mode replica.Mode, seed uint64, group int) (single, joint float64) {
		pattern := workload.CorrelatedWorkload(stats.NewRNG(o.Seed+seed+uint64(group)), group, group, steps, 0.3)
		return watchList(pattern, group, false, mode).MessageCost(0.5), watchList(pattern, group, true, mode).MessageCost(0.5)
	}
	st1 := o.table("Watch-list workload: singleton reads vs one joint read per refresh (ST1 mode)",
		"group size", "steps", "singleton msg cost", "batched msg cost", "saving")
	for _, group := range []int{2, 4, 8, 16} {
		sc, bc := costs(replica.Static1(), 0, group)
		st1.AddRow(report.I(group), report.I(steps), report.F(sc, 1), report.F(bc, 1), report.Pct(1-bc/sc))
	}
	st1.AddNote("ST1 mode isolates the batching effect: every refresh is fully remote")
	st1.AddNote("the batch collapses a refresh's g message pairs into one pair: saving -> 1 - 1/g")

	// Under SWk the group gets cached during read runs; batching then only
	// pays off on the misses, so the saving is smaller but still real.
	sw5 := o.table("Same workload under SW5 (copies allocated during read runs)",
		"group size", "singleton msg cost", "batched msg cost", "saving")
	for _, group := range []int{4, 16} {
		sc, bc := costs(replica.SW(5), 100, group)
		sw5.AddRow(report.I(group), report.F(sc, 1), report.F(bc, 1), report.Pct(1-bc/sc))
	}
}

// watchList drives pattern over keys on a new pair, each refresh as one
// joint read (batch) or as singleton reads, and returns the traffic.
func watchList(pattern []workload.CorrelatedStep, keys int, batch bool, mode replica.Mode) replica.MeterSnapshot {
	p := attach(nil, mode)
	names := p.prime("k%d", keys, []byte("seed"))
	for _, st := range pattern {
		if len(st.ReadKeys) == 0 {
			must(p.srv.Write(names[st.WriteKey], []byte("v")))
			continue
		}
		group := make([]string, len(st.ReadKeys))
		for i, k := range st.ReadKeys {
			group[i] = names[k]
		}
		if batch {
			must(p.cli.ReadMany(group))
			continue
		}
		for _, key := range group {
			must(p.cli.Read(key))
		}
	}
	return p.traffic()
}

// e19 sweeps burst length against window size: short bursts favor small
// windows and statics matched to the mean, long bursts reward windows
// (and the adaptive policy) that can follow each regime. The product
// chain gives exact values at one burst length; the simulation must
// agree within three of its batch-means 95% intervals, which already
// account for the series' autocorrelation.
func e19(o *out) {
	model := cost.NewConnection()
	n := o.scale(400000, 40000)
	names := []string{"mean burst len"}
	var fs []sim.Factory
	for _, s := range specs("ST1 ST2 SW3 SW9 SW31") {
		names, fs = append(names, s.String()), append(fs, s.New)
	}
	names, fs = append(names, "ASW(3-31)"), append(fs, asw)
	tbl := o.table("Cost per request on two-regime bursty workloads (theta 0.1 <-> 0.9)", names...)
	for _, burstLen := range []int{5, 20, 100, 1000, 10000} {
		cfg := workload.BurstyConfig{ThetaA: 0.1, ThetaB: 0.9, SwitchProb: 1 / float64(burstLen)}
		s, _ := workload.Bursty(stats.NewRNG(o.Seed+uint64(burstLen)), cfg, n)
		row := []string{report.I(burstLen)}
		for _, f := range fs {
			row = append(row, report.F(sim.Replay(f(), model, s, 1000).PerOp(), 4))
		}
		tbl.AddRow(row...)
	}
	tbl.AddNote("with theta jumping between 0.1 and 0.9, an oracle tracking each regime pays ~0.10/request")
	tbl.AddNote("short bursts (<~ window) are noise the window smooths over; long bursts are regimes the window follows: every window has a burst length it handles worst")
	tbl.AddNote("the adaptive window stays near the best fixed k at both extremes of the sweep; at intermediate burst lengths it pays a tracking penalty (its k oscillates with the regime)")

	exact := o.table("Exact (policy x regime product chain) vs simulated, burst length 100",
		"policy", "exact", "simulated", "±CI95 (batch means)", "eff. samples")
	params := analytic.BurstyParams{ThetaA: 0.1, ThetaB: 0.9, SwitchProb: 0.01}
	s, _ := workload.Bursty(stats.NewRNG(o.Seed+777), workload.BurstyConfig(params), n)
	for _, spec := range specs("SW3 SW9 T1:7") {
		ex := must(analytic.BurstyExpected(enum(spec), params, model))
		p := spec.New()
		series := make([]float64, 0, len(s))
		for _, op := range s {
			series = append(series, model.StepCost(p.Apply(op)))
		}
		series = series[1000:] // warmup
		bm := must(stats.BatchMeans(series, 50))
		ess := must(stats.EffectiveSampleSize(series, 50))
		o.near(3*bm.CI95(), ex, bm.Mean(), "bursty "+name(spec))
		exact.AddRow(name(spec), report.F(ex, 4), report.F(bm.Mean(), 4), report.F(bm.CI95(), 4), report.I(int(ess)))
	}
	exact.AddNote("no closed form exists for bursty input; the product chain gives exact values anyway")
	exact.AddNote("bursty cost series are heavily autocorrelated: the effective sample count is a small fraction of the request count, which is why the CIs are wide")
}

// e20 re-derives every competitive factor in the paper by solving the
// policy-vs-adversary mean-payoff game exactly (Karp's maximum cycle mean
// and binary search), then computes factors the paper never analyzed.
// The solver's tolerance is 1e-7, so its factors must match to 1e-4.
func e20(o *out) {
	connM, half, one := cost.Model(cost.NewConnection()), cost.Model(cost.NewMessage(0.5)), cost.Model(cost.NewMessage(1))
	label := map[cost.Model]string{connM: "connection", half: "message w=0.5", one: "message w=1.0"}
	type row struct {
		spec    string
		m       cost.Model
		want    float64 // the factor a fresh row must show; 0: none stated
		context string
	}
	rederive := o.table("Paper factors re-derived by the game solver", "policy", "model", "paper factor", "game solver", "match")
	for _, r := range []row{{"SW1", connM, 0, ""}, {"SW3", connM, 0, ""}, {"SW7", connM, 0, ""}, {"SW1", half, 0, ""},
		{"SW3", half, 0, ""}, {"SW5", one, 0, ""}, {"T1:4", connM, 0, ""}, {"T2:4", connM, 0, ""}} {
		s := specs(r.spec)[0]
		got, paper := must(analytic.CompetitiveRatio(enum(s), r.m, 64, 1e-7)), factor(s, r.m, 0)
		o.near(1e-4, paper, got, "game solver on "+name(s))
		rederive.AddRow(name(s), label[r.m], report.F(paper, 3), report.F(got, 3), mark[math.Abs(got-paper) < 1e-4])
	}
	rederive.AddNote("the game solver knows nothing of the paper's proofs: it searches all adversary strategies over the product state space")

	// The tie-holding even windows must show k+2 (the finding below) and
	// callback invalidation SW1's 1+2w.
	fresh := o.table("Exact factors the paper never derived", "policy", "model", "exact competitive ratio", "context")
	for _, r := range []row{{"T1:4", half, 0, "T family analyzed only in the connection model"}, {"T2:4", half, 0, ""},
		{"SWe2", connM, 4, "tie-holding even window (excluded by 'k odd')"}, {"SWe4", connM, 6, ""}, {"SWe6", connM, 8, ""},
		{"CacheInv", half, 2, "callback invalidation == SW1: factor must be 1+2w"}} {
		s := specs(r.spec)[0]
		got := must(analytic.CompetitiveRatio(enum(s), r.m, 64, 1e-7))
		if r.want > 0 {
			o.near(1e-4, r.want, got, "game solver on "+name(s))
		}
		fresh.AddRow(name(s), label[r.m], report.F(got, 4), r.context)
	}
	fresh.AddNote("finding: SWe(k)'s exact factor is k+2 — the SAME as SW(k+1)'s — while E16 shows SWe(k) beats SW(k+1) on expected cost at every theta tested: the tie-holding even window weakly dominates the next odd window")
	fresh.AddNote("CacheInv at 1+2w = 2.0 re-confirms the callback-invalidation identity through a third independent method")

	// The solver extracts a cycle whose mean ratio is within 0.05 of the
	// bound; 4000 requests of it add at most b/1000 more.
	witnesses := o.table("Adversarial families DISCOVERED by the game (witness cycles)",
		"policy", "model", "extracted cycle", "ratio it forces", "bound")
	for _, r := range []row{{"SW3", connM, 0, ""}, {"SW5", connM, 0, ""}, {"SW1", half, 0, ""}, {"T1:3", connM, 0, ""}} {
		s := specs(r.spec)[0]
		bound := factor(s, r.m, 0)
		cycle, _, err := analytic.WorstSchedule(enum(s), r.m, bound-0.05)
		res := workload.MeasureRatio(s.New(), r.m, must(cycle, err).Repeat(4000/len(cycle)))
		o.near(0.06, bound, res.Ratio, "witness cycle of "+name(s))
		witnesses.AddRow(name(s), label[r.m], cycle.String(), report.F(res.Ratio, 3), report.F(bound, 3))
	}
	witnesses.AddNote("the solver never saw the paper's hand-built families; it re-invents them (up to rotation) from the game graph")

	statics := o.table("Non-competitiveness confirmed by the game", "policy", "result at limit 64")
	for _, p := range []core.Enumerable{core.NewST1(), core.NewST2()} {
		got := must(analytic.CompetitiveRatio(p, connM, 64, 1e-6))
		o.hold(math.IsInf(got, 1), "game solver finds %v competitive at %v", p.Name(), got)
		statics.AddRow(p.Name(), "+Inf (not competitive)")
	}
}

// e21 sweeps the lookahead horizon: how many future requests must a player
// see before the k+1 worst-case gap (Theorem 4) closes? It runs on the
// SW9 adversarial family (where foresight is worth the most) and on
// Poisson workloads (where it is worth surprisingly little).
func e21(o *out) {
	c := offline.Ideal()
	adv := workload.SWkAdversary(9, o.scale(2000, 200))
	opt := offline.Cost(adv, c)
	advTbl := o.table("Lookahead on the SW9 adversarial family (r^5 w^5)^N",
		"player", "sees future", "cost / offline optimum")
	sw9 := sim.Replay(core.NewSW(9), cost.NewConnection(), adv, 0).Cost
	advTbl.AddRow("SW9 (online)", "0 requests", report.F(sw9/opt, 3))
	for _, L := range []int{1, 2, 3, 5, 6, 10, 20} {
		advTbl.AddRow("horizon player", report.I(L)+" requests", report.F(offline.LookaheadCost(adv, L, c)/opt, 3))
	}
	advTbl.AddNote("finding: a horizon of just 2 — enough to tell whether the next request continues the current run — already recovers the whole 10x gap on this family; one request of foresight halves it")

	n := o.scale(200000, 20000)
	stoTbl := o.table("Lookahead on Poisson workloads (connection model)",
		"theta", "SW9 online", "L=1", "L=4", "L=16", "offline optimum")
	stoThetas := []float64{0.2, 0.5, 0.8}
	for _, row := range gridRun(len(stoThetas), func(ci int) []string {
		theta := stoThetas[ci]
		// The lookahead players need the materialized future, so this cell
		// borrows a pooled schedule buffer instead of allocating 200k ops.
		s := sim.GetSchedule(n)
		defer sim.PutSchedule(s)
		workload.FillBernoulli(stats.NewRNG(o.Seed+uint64(100*theta)), theta, s)
		den := float64(len(s))
		row := []string{report.F(theta, 1), report.F(sim.Replay(core.NewSW(9), cost.NewConnection(), s, 0).Cost/den, 4)}
		for _, L := range []int{1, 4, 16} {
			row = append(row, report.F(offline.LookaheadCost(s, L, c)/den, 4))
		}
		return append(row, report.F(offline.Cost(s, c)/den, 4))
	}) {
		stoTbl.AddRow(row...)
	}
	stoTbl.AddNote("on memoryless input even L=4 sits close to the full offline optimum: the window's k+1 premium buys robustness against exactly the adversarial schedules, not the stochastic ones")
}

// e22 measures the bytes a reconnecting MC transfers to refresh its
// watch list, as a function of how much changed while it was away. With
// version-hint revalidation the response carries payloads only for the
// changed fraction.
func e22(o *out) {
	const keys = 50
	payload := o.scale(4096, 512)
	t := o.table(fmt.Sprintf("Post-reconnect refresh of %d keys x %d B", keys, payload),
		"changed while away", "refresh bytes (revalidating)", "naive re-fetch bytes", "saving")
	for _, changed := range []int{0, 5, 15, 30, 50} {
		reval := reconnectRefresh(o.Seed, keys, payload, changed, true)
		naive := reconnectRefresh(o.Seed, keys, payload, changed, false)
		t.AddRow(fmt.Sprintf("%d/%d keys", changed, keys), report.I(reval), report.I(naive),
			report.Pct(1-float64(reval)/float64(naive)))
	}
	t.AddNote("the refresh is ONE control + ONE data message either way (E18); revalidation changes only what the data message carries")
	t.AddNote("at 0 changed the response is version confirmations only; at 50/50 the hints cost a few bytes and save nothing")
}

// reconnectRefresh warms an SW3 MC on keys, disconnects it, changes
// `changed` of them, and returns the bytes of the refresh after
// reconnecting: the same MC with its revalidation hints (withArchive),
// or a new one without.
func reconnectRefresh(seed uint64, keys, payloadSize, changed int, withArchive bool) int {
	p := attach(nil, replica.SW(3))
	names := p.prime("wl/%02d", keys, bytes.Repeat([]byte{0x11}, payloadSize))
	// Warm the cache: two joint reads give every SW3 window a majority.
	p.cli.ReadMany(names)
	p.cli.ReadMany(names)
	p.cli.Disconnect()
	perm := make([]int, keys)
	for i := range perm {
		perm[i] = i
	}
	stats.NewRNG(seed).Shuffle(keys, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	fresh := bytes.Repeat([]byte{0x22}, payloadSize)
	for _, idx := range perm[:changed] {
		must(p.srv.Write(names[idx], fresh))
	}

	a, b := transport.NewMemPair()
	q := pair{p.srv, p.cli, p.srv.Attach(a).Meter()}
	if withArchive {
		p.cli.Reattach(b)
	} else { // a hint-less MC: same protocol, empty archive
		q.cli = must(replica.NewClient(b, replica.SW(3)))
	}
	before := q.traffic()
	must(q.cli.ReadMany(names))
	return q.traffic().Bytes - before.Bytes
}
