package experiments

import (
	"math"

	"mobirep/internal/analytic"
	"mobirep/internal/core"
	"mobirep/internal/cost"
	"mobirep/internal/multi"
	"mobirep/internal/replica"
	"mobirep/internal/report"
	"mobirep/internal/sched"
	"mobirep/internal/sim"
	"mobirep/internal/stats"
	"mobirep/internal/workload"
)

// The bespoke claims of the paper's own artifacts (E01-E13): tables that
// are closed forms only, or whose layout is not one sweep.

// e01Map is Figure 1: the Theorem 6 winner of {ST1, ST2, SW1} at each
// (theta, omega).
func e01Map(o *out) {
	thetas := []float64{0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95}
	cols := []string{"omega \\ theta"}
	for _, theta := range thetas {
		cols = append(cols, report.F(theta, 2))
	}
	t := o.table("Figure 1: winner of {ST1, ST2, SW1} by expected cost (message model)", cols...)
	for _, omega := range []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1} {
		row := []string{report.F(omega, 2)}
		for _, theta := range thetas {
			row = append(row, analytic.BestExpectedMsg(theta, omega).String())
		}
		t.AddRow(row...)
	}
	t.AddNote("boundaries: theta = (1+w)/(1+2w) above -> ST1; theta = 2w/(1+2w) below -> ST2")
}

// e01Verify checks Figure 1's boundaries by simulation at omega = 0.5.
// The verdict is gated on the cost gap, not on the winner's name: where
// two methods tie in theory (theta = 0.75) noise may pick either, but the
// formula's winner may never cost more than 2 tolExp over the cheapest
// measured method.
var e01Verify = sweep{
	Title: "Figure 1 verification at omega=0.5: measured expected cost per request",
	Cols:  []string{"theta", "EXP ST1", "EXP ST2", "EXP SW1", "winner(formula)", "winner(sim)", "agree"},
	Grid:  []float64{0.1, 0.3, 1.0 / 3, 0.5, 0.7, 0.75, 0.9}, Specs: specs("ST1 ST2 SW1"), Model: msgAt(0.5),
	Predict: exp, Measure: expected(200000, 10000), SeedPerSpec: true, Tol: tolExp,
	Row: func(o *out, cs []cell) []string {
		st1, st2, sw1 := cs[0].got, cs[1].got, cs[2].got
		winner := analytic.AlgSW1
		if st1 < sw1 && st1 < st2 {
			winner = analytic.AlgST1
		} else if st2 < sw1 && st2 < st1 {
			winner = analytic.AlgST2
		}
		formula := analytic.BestExpectedMsg(cs[0].x, 0.5)
		fc := map[analytic.Algorithm]float64{analytic.AlgST1: st1, analytic.AlgST2: st2, analytic.AlgSW1: sw1}[formula]
		o.hold(fc <= min(st1, st2, sw1)+2*tolExp, "Figure 1 at theta %v: the formula's %v measures %.4f", cs[0].x, formula, fc)
		return []string{report.F(cs[0].x, 3), report.F(st1, 4), report.F(st2, 4), report.F(sw1, 4),
			formula.String(), winner.String(), mark[winner == formula]}
	},
	Notes: []string{"theta near a boundary can disagree within simulation noise; boundaries at " +
		report.F(analytic.ThetaLowerST2(0.5), 3) + " and " + report.F(analytic.ThetaUpperST1(0.5), 3)},
}

// e02Curve is the section 6.3 figure: the least odd window beating SW1
// per omega, its closed-form threshold k0, and the inverse omega*(k).
func e02Curve(o *out) {
	curve := o.table("Figure 2: break-even window size vs omega",
		"omega", "k0 (closed form)", "min odd k beating SW1", "AVG SW1", "AVG SWk at that k")
	for _, omega := range []float64{0.40, 0.42, 0.45, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		k0, k := analytic.K0(omega), analytic.MinOddKBeatingSW1(omega)
		k0s, ks, avgk := "+Inf", "none", "-"
		if !math.IsInf(k0, 1) {
			k0s = report.F(k0, 2)
			// The search must find the least odd k above k0.
			o.hold(k == (int(k0)+1)|1, "Figure 2 at omega %v: k0 %.3f, least odd k found %d", omega, k0, k)
		}
		if k != 0 {
			ks = report.I(k)
			avgk = report.F(analytic.AvgSWMsg(k, omega), 4)
		}
		curve.AddRow(report.F(omega, 2), k0s, ks, report.F(analytic.AvgSW1Msg(omega), 4), avgk)
	}
	curve.AddNote("paper worked examples: omega=0.45 -> k=39, omega=0.8 -> k=7")

	inverse := o.table("Figure 2 inverse: omega*(k) = 2k(k+5)/((5k+6)(k-1))",
		"k", "omega*", "AVG SWk at omega*", "AVG SW1 at omega*")
	for _, k := range []int{3, 5, 7, 11, 21, 39, 95} {
		ws := analytic.OmegaStar(k)
		if ws > 1 {
			// k=3: omega*(3) = 8/7 > 1, so SW3 never beats SW1 for any
			// admissible control-message cost.
			inverse.AddRow(report.I(k), report.F(ws, 4), "- (omega* > 1)", "-")
			continue
		}
		// omega* is where the two averages meet.
		o.near(1e-9, analytic.AvgSW1Msg(ws), analytic.AvgSWMsg(k, ws), "Figure 2 inverse at k "+report.I(k))
		inverse.AddRow(report.I(k), report.F(ws, 4),
			report.F(analytic.AvgSWMsg(k, ws), 6), report.F(analytic.AvgSW1Msg(ws), 6))
	}
	inverse.AddNote("omega* decreases toward the Corollary 3 constant 0.4 as k grows")
}

// e02Check simulates Figure 2 at omega = 0.8: SW7 must beat SW1 on AVG
// and SW5 must not. A sim verdict may differ from the theory's only where
// the theory gap is within the tolerance of one measurement.
func e02Check(o *out) {
	w := sweep{Title: "Figure 2 verification at omega=0.8 (simulated AVG)", Grid: []float64{0},
		Specs: specs("SW1 SW5 SW7 SW9"), Model: msgAt(0.8), Predict: avg, Measure: drift{600, 60, 600, 200}.measure,
		Tol: tolAvg, Rel: true, Lag: lagAvg}
	cs := w.cells(o)
	t := o.table(w.Title, "algorithm", "AVG theory", "AVG simulated", "beats SW1 (theory)", "beats SW1 (sim)")
	t.AddRow("SW1", report.F(cs[0].theory, 4), report.F(cs[0].got, 4), "-", "-")
	for _, c := range cs[1:] {
		thry, got := c.theory <= cs[0].theory, c.got <= cs[0].got
		o.hold(thry == got || math.Abs(c.theory-cs[0].theory) <= tolAvg*c.theory,
			"Figure 2: %v beats SW1 by sim %v, by theory %v", c.s, got, thry)
		t.AddRow(c.s.String(), report.F(c.theory, 4), report.F(c.got, 4), mark[thry], mark[got])
	}
}

// e05Statics is section 5.3: the offline optimum pays nothing on a
// homogeneous schedule, so no static method is competitive.
func e05Statics(o *out) {
	t := o.table("Section 5.3: static methods are not competitive",
		"algorithm", "schedule", "online cost", "offline cost", "ratio")
	n := o.scale(10000, 500)
	for _, c := range []struct {
		spec, label string
		op          sched.Op
	}{{"ST1", "r^", sched.Read}, {"ST2", "w^", sched.Write}} {
		res := workload.MeasureRatio(specs(c.spec)[0].New(), cost.NewConnection(), sched.Block(c.op, n))
		o.hold(math.IsInf(res.Ratio, 1), "%s on %s%d: ratio %v", c.spec, c.label, n, res.Ratio)
		t.AddRow(c.spec, c.label+report.I(n), report.F(res.OnlineCost, 0), report.F(res.OfflineCost, 0), "+Inf")
	}
	t.AddNote("the offline algorithm pays 0 on homogeneous schedules, so the ratio is unbounded")
}

// e09Worked is section 7.1's worked number.
func e09Worked(o *out) {
	t := o.table("Paper claim: T1(15) at theta=0.75 within 4% of the optimum", "quantity", "value")
	opt, t1 := analytic.MinExpectedConn(0.75), analytic.ExpT1Conn(15, 0.75)
	o.hold(t1/opt-1 <= 0.04, "T1(15) at theta 0.75: %v over the optimum", t1/opt-1)
	t.AddRow("optimum min(t, 1-t)", report.F(opt, 6))
	t.AddRow("EXP T1(15)", report.F(t1, 6))
	t.AddRow("relative gap", report.Pct(t1/opt-1))
	t.AddRow("within 4%", mark[t1/opt-1 <= 0.04])
}

// e10 reproduces every number quoted in the conclusions, and checks the
// SW9 average by simulation.
func e10(o *out) {
	t := o.table("Section 9 worked numbers", "claim", "computed", "holds")
	check := func(what, computed string, ok bool) {
		o.hold(ok, "section 9: %s: %s", what, computed)
		t.AddRow(what, computed, mark[ok])
	}
	g15 := analytic.AvgSWConn(15)/analytic.OptimumAvgConn - 1
	check("SW15 AVG within 6% of optimum (connection)", report.Pct(g15), g15 <= 0.06)
	g9 := analytic.AvgSWConn(9)/analytic.OptimumAvgConn - 1
	check("SW9 AVG within 10% of optimum (connection)", report.Pct(g9), g9 <= 0.10)
	check("SW9 is 10-competitive", report.F(analytic.CompetitiveSWConn(9), 0), analytic.CompetitiveSWConn(9) == 10)
	k45 := analytic.MinOddKBeatingSW1(0.45)
	check("omega=0.45: SWk beats SW1 only for k >= 39", report.I(k45), k45 == 39)
	k80 := analytic.MinOddKBeatingSW1(0.8)
	check("omega=0.8: SWk beats SW1 only for k >= 7", report.I(k80), k80 == 7)
	t1gap := analytic.ExpT1Conn(15, 0.75)/analytic.MinExpectedConn(0.75) - 1
	check("T1(15) at theta=0.75 within 4% of optimum", report.Pct(t1gap), t1gap <= 0.04)

	got := drift{800, 80, 500, 200}.of(o.Config, specs("SW9")[0].New, cost.NewConnection(), o.Seed)
	o.near(tolAvg*analytic.AvgSWConn(9)+9*lagAvg, analytic.AvgSWConn(9), got, "section 9: simulated AVG SW9")
	t.AddNote("simulated AVG SW9 = %.4f (theory %.4f)", got, analytic.AvgSWConn(9))
}

// tolDrift: the dynamic multi-object method re-solves every 50 requests
// from a 200-request window, so after a phase change it runs the old
// allocation for up to 250 requests, at most 250/5000 of a quick phase.
const tolDrift = 0.06

// e11 is the section 7.2 multi-object method: the four two-object static
// schemes, greedy against the exact optimum on random instances, and the
// window-based dynamic method tracking a drifting workload.
func e11(o *out) {
	x, y := multi.NewMask(0), multi.NewMask(1)
	model := multi.ConnCost{}
	freqs := multi.FreqTable{
		{Kind: multi.Read, Objects: x}:      6,
		{Kind: multi.Read, Objects: y}:      1,
		{Kind: multi.Read, Objects: x | y}:  2,
		{Kind: multi.Write, Objects: x}:     1,
		{Kind: multi.Write, Objects: y}:     5,
		{Kind: multi.Write, Objects: x | y}: 1,
	}
	schemes := o.table("Two-object static schemes (connection model)", "scheme", "cached at MC", "expected cost/op")
	best, bestCost := multi.OptimalStatic(freqs, 2, model)
	names := []string{"ST1 (neither)", "ST1,2 (y only)", "ST2,1 (x only)", "ST2 (both)"}
	for i, alloc := range []multi.Mask{0, y, x, x | y} {
		c := multi.ExpectedCost(freqs, alloc, model)
		o.hold(bestCost <= c, "two-object optimum %v costs %v, above %s's %v", best, bestCost, names[i], c)
		schemes.AddRow(names[i], alloc.String(), report.F(c, 4))
	}
	schemes.AddNote("optimal static: cache %v at cost %.4f", best, bestCost)

	rng := stats.NewRNG(o.Seed + 7)
	quality := o.table("Greedy vs exhaustive optimum on random joint instances",
		"objects", "classes", "optimal cost", "greedy cost", "gap")
	for _, n := range []int{4, 6, 8} {
		f := randomFreqs(rng, n, 4*n)
		_, oc := multi.OptimalStatic(f, n, model)
		_, gc := multi.Greedy(f, n, model)
		o.hold(gc >= oc-1e-12, "greedy %v beats the optimum %v on %d objects", gc, oc, n)
		gap := 0.0
		if oc > 0 {
			gap = gc/oc - 1
		}
		quality.AddRow(report.I(n), report.I(len(f)), report.F(oc, 4), report.F(gc, 4), report.Pct(gap))
	}

	dyn := multi.NewDynamic(2, 200, 50, model)
	phases := []multi.FreqTable{
		{ // phase A: x read-heavy, y write-heavy -> cache x
			{Kind: multi.Read, Objects: x}: 8, {Kind: multi.Write, Objects: x}: 1,
			{Kind: multi.Read, Objects: y}: 1, {Kind: multi.Write, Objects: y}: 8,
		},
		{ // phase B: reversed -> cache y
			{Kind: multi.Read, Objects: x}: 1, {Kind: multi.Write, Objects: x}: 8,
			{Kind: multi.Read, Objects: y}: 8, {Kind: multi.Write, Objects: y}: 1,
		},
	}
	opsPerPhase := o.scale(50000, 5000)
	drift := o.table("Dynamic window method under drifting frequencies",
		"phase", "static optimum (oracle)", "dynamic per-op", "allocation at phase end")
	for pi, f := range phases {
		start, startCost := dyn.Ops(), dyn.Cost()
		samplePhase(rng, f, opsPerPhase, dyn)
		perOp := (dyn.Cost() - startCost) / float64(dyn.Ops()-start)
		_, oc := multi.OptimalStatic(f, 2, model)
		o.near(tolDrift, oc, perOp, "dynamic multi-object phase "+report.I(pi))
		drift.AddRow(report.I(pi), report.F(oc, 4), report.F(perOp, 4), dyn.Alloc().String())
	}
	drift.AddNote("the dynamic method re-solves every 50 ops from a 200-op window and converges to each phase's optimum")
}

func randomFreqs(rng *stats.RNG, n, classes int) multi.FreqTable {
	f := make(multi.FreqTable)
	for range classes {
		var m multi.Mask
		for id := range n {
			if rng.Bernoulli(0.35) {
				m |= multi.NewMask(id)
			}
		}
		if m == 0 {
			m = multi.NewMask(rng.Intn(n))
		}
		kind := multi.Read
		if rng.Bernoulli(0.5) {
			kind = multi.Write
		}
		f[multi.Class{Kind: kind, Objects: m}] += 1 + rng.Float64()*9
	}
	return f
}

func samplePhase(rng *stats.RNG, f multi.FreqTable, ops int, dyn *multi.Dynamic) {
	// Canonical class order: building the sampling arrays from raw map
	// iteration would map each RNG draw to a different class per run.
	classes, total := f.Classes(), f.Total()
	for range ops {
		xv, pick := rng.Float64()*total, classes[len(classes)-1]
		for _, c := range classes {
			if xv < f[c] {
				pick = c
				break
			}
			xv -= f[c]
		}
		dyn.Apply(multi.Op{Kind: pick.Kind, Objects: pick.Objects})
	}
}

// e12 measures the period model of section 3 against the AVG integral
// as the number of 400-request periods grows; the window carried across
// period boundaries holds it slightly above.
func e12(o *out) {
	sweep{
		Title: "Period model against AVG_SW9 = 1/4 + 1/44, biased up by the window's carry-over",
		Cols:  []string{"periods", "ops/period", "measured", "theory", "abs error"},
		Grid:  []float64{20, 100, 500, float64(o.scale(2500, 1000))}, Specs: specs("SW9"), Model: conn, Predict: avg,
		Measure: func(_ Config, s core.Spec, m cost.Model, periods float64, seed uint64) (float64, []string) {
			return sim.EstimateAverage(s.New, m, sim.AverageOpts{Periods: int(periods), OpsPerPeriod: 400,
				Trials: 8, Seed: seed}).Mean(), nil
		},
		// 20 periods of 8 trials draw only 160 thetas: twice tolAvg.
		Tol: 2 * tolAvg, Rel: true, Lag: lagAvg, Long: true,
		Row: func(_ *out, cs []cell) []string {
			c := cs[0]
			return []string{report.I(int(c.x)), "400", report.F(c.got, 5), report.F(c.theory, 5),
				report.F(math.Abs(c.got-c.theory), 5)}
		},
		Notes: []string{"each period draws theta ~ U(0,1), but sim.EstimateAverage carries the window across each 400-request period boundary, so each period starts on its predecessor's window: about k/8 requests' extra cost per period, which holds the measurement near 0.003 above the integral of EXP over theta as the periods grow"},
	}.render(o)
}

// tolProtocol bounds a protocol run's cost per request against EXP: in
// quick mode 2000 requests, whose cost has a standard deviation under 0.8
// and is correlated over a window's few requests, leave a standard error
// near 0.03.
const tolProtocol = 0.1

// e13 drives the full distributed stack (client, server, wire protocol,
// in-memory transport, database, cache) with a Poisson workload and
// compares its metered traffic against the simulator, which it must equal
// exactly, and against the closed forms.
func e13(o *out) {
	const omega = 0.5
	t := o.table("Distributed protocol vs simulator vs theory (message model, omega=0.5)",
		"k", "theta", "ops", "protocol cost", "simulator cost", "theory EXP*ops", "protocol==sim")
	ops := o.scale(20000, 2000)
	for _, k := range []int{1, 3, 9} {
		for _, theta := range []float64{0.25, 0.5, 0.75} {
			rng := stats.NewRNG(o.Seed + uint64(k*1000) + uint64(theta*100))
			seq := workload.StripTimes(workload.PoissonMerged(rng, 1-theta, theta, ops))
			proto := attach(nil, replica.SW(k)).drive("x", seq).MessageCost(omega)
			simCost := sim.Replay(core.NewSW(k), cost.NewMessage(omega), seq, 0).Cost
			n, theory := float64(len(seq)), analytic.ExpSWMsg(k, theta, omega)
			o.hold(proto == simCost, "SW%d at theta %v: protocol %v, simulator %v", k, theta, proto, simCost)
			o.near(tolProtocol, theory, proto/n, "protocol SW"+report.I(k)+" at theta "+report.F(theta, 2))
			t.AddRow(report.I(k), report.F(theta, 2), report.I(len(seq)),
				report.F(proto, 1), report.F(simCost, 1), report.F(theory*n, 1), mark[proto == simCost])
		}
	}
	t.AddNote("protocol and simulator agree exactly; theory matches up to Poisson sampling noise")
	t.AddNote("the seed write primes the store and is not part of the measured schedule... it costs nothing (no copy)")
}
