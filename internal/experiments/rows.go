package experiments

import (
	"mobirep/internal/analytic"
	"mobirep/internal/core"
	"mobirep/internal/cost"
	"mobirep/internal/report"
	"mobirep/internal/sched"
	"mobirep/internal/workload"
)

// Tolerances, set by quick mode (Config.Quick), the scale the tests gate;
// the full scale measures 4-20 times more requests. Over seeds 1-30 in
// quick mode the largest gap reached 80% of tolTight and at most 72% of
// each other tolerance; at full scale (seeds 1, 2 and 1994) at most 26%.
const (
	// tolExp: 8 trials of 10 000 i.i.d. requests leave a standard error
	// of EXP near 0.003 at cost scale 1+omega <= 2 (SW15's copy bit is
	// correlated over ~k requests); the largest gap seen was 0.013.
	tolExp = 0.02
	// tolAvg, relative: AVG redraws theta per period, and 8 trials of 60
	// or more periods draw at least 480 thetas. A method's cost ranges
	// over at most twice its AVG as theta varies, so the standard error
	// is at most 2/sqrt(12*480) = 2.6% of the AVG.
	tolAvg = 0.1
	// lagAvg: a window carries its state across each period boundary and
	// lags the new theta by about k requests, which biases AVG upward by
	// about k/8 requests' cost per 200-request period: lagAvg per unit of
	// k, on top of tolAvg.
	lagAvg = 0.0007
	// tolTight, relative: N cycles of a tight family exceed the factor by
	// the additive constant spread over N cycles: 1% at N = 100, and 4%
	// for the flip-flop family's N = 26 (SW3 reads 4.16 against 4).
	tolTight = 0.05
)

// rows is the table: one row per paper artifact, in ID order.
var rows = []Experiment{
	{ID: "E01", Title: "Message-model dominance regions over (theta, omega)", Artifact: "Figure 1, Theorem 6",
		claims: []func(*out){e01Map, e01Verify.render}},
	{ID: "E02", Title: "SW1-vs-SWk break-even window size as a function of omega",
		Artifact: "Figure 2 (section 6.3), Corollaries 3 and 4",
		claims:   []func(*out){e02Curve, e02Check}},
	{ID: "E03", Title: "Expected cost per request vs theta, connection model",
		Artifact: "Equations 2 and 5; Theorems 1 and 2",
		claims: []func(*out){sweep{
			Title: "EXP(theta), connection model: theory vs simulation",
			Cols:  pairCols("theta", specs(e03Specs)),
			Grid:  []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95},
			Specs: specs(e03Specs), Model: conn, Predict: exp,
			Measure: expected(200000, 10000), SeedPerSpec: true, Tol: tolExp, Row: pairs,
			Err:   "whole sweep",
			Notes: []string{"Theorem 2: every SWk column is >= min(ST1, ST2) at each theta"},
		}.render}},
	{ID: "E04", Title: "Average expected cost vs window size, connection model",
		Artifact: "Equations 3 and 6; Theorem 3; Corollary 1",
		claims: []func(*out){sweep{
			Title: "AVG, connection model: theory vs drifting-theta simulation",
			Cols:  []string{"algorithm", "AVG theory", "AVG sim", "above optimum (1/4)"},
			Grid:  []float64{0}, Specs: specs("ST1 ST2 SW1 SW3 SW5 SW9 SW15 SW21 SW39 SW95"),
			Model: conn, Predict: avg, Measure: drift{800, 80, 500, 200}.measure, Tol: tolAvg, Rel: true, Lag: lagAvg, Long: true,
			Row: func(_ *out, cs []cell) []string {
				return []string{cs[0].s.String(), report.F(cs[0].theory, 4), report.F(cs[0].got, 4),
					report.Pct(cs[0].theory/analytic.OptimumAvgConn - 1)}
			},
			Notes: []string{"paper: k=15 comes within 6% of the optimum; k=9 within 10%",
				"AVG_SWk = 1/4 + 1/(4(k+2)) decreases in k; both statics sit at 1/2"},
		}.render}},
	{ID: "E05", Title: "Competitive ratios, connection model", Artifact: "Theorem 4; section 5.3",
		claims: []func(*out){sweep{
			Title: "Theorem 4: SWk is tightly (k+1)-competitive",
			Cols:  []string{"k", "bound k+1", "ratio on (r^(n+1) w^(n+1))^N", "online cost", "offline cost"},
			Grid:  []float64{0}, Specs: specs("SW1 SW3 SW5 SW9 SW15"), Model: conn, Predict: factor,
			Measure: onFamily(tight, 2000, 100), Tol: tolTight, Rel: true, Long: true,
			Row: func(_ *out, cs []cell) []string {
				return append([]string{report.I(cs[0].s.K), report.F(cs[0].theory, 0), report.F(cs[0].got, 4)}, cs[0].more...)
			},
			Notes: []string{"ratio -> k+1 as N grows; the excess over k+1 is the additive constant b"},
		}.render, search("Exhaustive worst-case search (all schedules of length ", "bound k+1", cost.NewConnection(), 0, 16, 10,
			"short prefixes include warmup effects absorbed by b; no schedule can exceed k+1 asymptotically"),
			e05Statics}},
	{ID: "E06", Title: "Expected cost per request vs theta, message model",
		Artifact: "Equations 7, 9, 11; Theorems 5, 6, 8, 9",
		claims:   []func(*out){e06(0.25).render, e06(0.5).render, e06(1).render}},
	{ID: "E07", Title: "Average expected cost vs window size, message model",
		Artifact: "Equations 8, 10, 12; Theorems 7, 10; Corollary 2",
		claims:   []func(*out){e07(0.2).render, e07(0.5).render, e07(0.8).render}},
	{ID: "E08", Title: "Competitive ratios, message model", Artifact: "Theorems 11 and 12",
		claims: []func(*out){sweep{
			Title: "Theorem 11: SW1 is tightly (1+2w)-competitive",
			Cols:  []string{"omega", "bound 1+2w", "ratio on (w r)^N"},
			Grid:  []float64{0, 0.25, 0.5, 0.75, 1}, Specs: specs("SW1"), Model: msg, Predict: factor,
			Measure: onFamily(func(_ core.Spec, n int) sched.Schedule { return workload.SW1Adversary(n) }, 2000, 100),
			Tol:     tolTight, Rel: true, Long: true,
			Row: func(_ *out, cs []cell) []string {
				return []string{report.F(cs[0].x, 2), report.F(cs[0].theory, 2), report.F(cs[0].got, 4)}
			},
		}.render, sweep{
			Title: "Theorem 12: SWk is tightly ((1+w/2)(k+1)+w)-competitive",
			Cols:  []string{"k", "omega", "bound", "ratio on (r^(n+1) w^(n+1))^N"},
			Grid:  []float64{0.25, 0.5, 1}, Specs: specs("SW3 SW5 SW9"), Model: msg, Predict: factor,
			Measure: onFamily(tight, 2000, 100), Tol: tolTight, Rel: true, Long: true,
			Row: func(_ *out, cs []cell) []string {
				return []string{report.I(cs[0].s.K), report.F(cs[0].x, 2), report.F(cs[0].theory, 3), report.F(cs[0].got, 4)}
			},
			Notes: []string{"SW1's factor 1+2w is below SWk's for every k > 1: the worst case prefers small windows"},
		}.render, search("Exhaustive worst-case search, message model, omega=0.5 (length ", "bound", cost.NewMessage(0.5), 3, 14, 10)}},
	{ID: "E09", Title: "Competitive modifications T1m and T2m of the static methods", Artifact: "Section 7.1",
		claims: []func(*out){sweep{
			Title: "T1m expected cost, connection model: (1-t) + (1-t)^m (2t-1)",
			Cols:  []string{"m", "theta", "T1 theory", "T1 sim", "ST1 (floor)", "SW_m theory", "T1 <= SWm"},
			Grid:  []float64{0.55, 0.65, 0.75, 0.9}, Specs: specs("T1:3 T1:7 T1:15"), Model: conn, Predict: exp,
			Measure: expected(200000, 10000), Tol: tolExp, Long: true,
			Row: func(o *out, cs []cell) []string {
				c := cs[0]
				swm := analytic.ExpSWConn(c.s.K, c.x)
				o.hold(c.theory <= swm+1e-12, "T1(%d) above SW%d at theta %v", c.s.K, c.s.K, c.x)
				return []string{report.I(c.s.K), report.F(c.x, 2), report.F(c.theory, 5), report.F(c.got, 5),
					report.F(analytic.ExpST1Conn(c.x), 5), report.F(swm, 5), mark[c.theory <= swm+1e-12]}
			},
			Notes: []string{"for theta > 0.5, T1m sits between ST1 and SWm: near-static cost, bounded worst case"},
		}.render, sweep{
			Title: "T family competitiveness (both (m+1)-competitive)",
			Cols:  []string{"algorithm", "bound m+1", "ratio on its adversary family"},
			Grid:  []float64{0}, Specs: specs("T1:3 T2:3 T1:7 T2:7 T1:15 T2:15"), Model: conn, Predict: factor,
			Measure: onFamily(tight, 2000, 100), Tol: tolTight, Rel: true, Long: true,
			Row: func(_ *out, cs []cell) []string {
				return []string{name(cs[0].s), report.I(cs[0].s.K + 1), report.F(cs[0].got, 4)}
			},
		}.render, e09Worked}},
	{ID: "E10", Title: "Worked numbers from the conclusions section", Artifact: "Section 9",
		claims: []func(*out){e10}},
	{ID: "E11", Title: "Multi-object allocation", Artifact: "Section 7.2", claims: []func(*out){e11}},
	{ID: "E12", Title: "Period model settles about 0.003 above the AVG integral",
		Artifact: "Section 3 (definition of average expected cost)", claims: []func(*out){e12}},
	{ID: "E13", Title: "Distributed protocol reproduces the simulator's cost exactly",
		Artifact: "Section 4 (protocol); validation of the whole stack", claims: []func(*out){e13}},
	{ID: "E14", Title: "Baselines from the related work: callback invalidation and EWMA estimators",
		Artifact: "Section 8 comparison (extension)", claims: []func(*out){e14}},
	{ID: "E15", Title: "One stationary computer serving a fleet of heterogeneous mobile clients",
		Artifact: "Section 3 model, many-MC deployment (extension)", claims: []func(*out){e15}},
	{ID: "E16", Title: "Cold-start transients and the odd-window assumption",
		Artifact: "Section 4 'k is odd' and initial-window choices (extension)", claims: []func(*out){e16}},
	{ID: "E17", Title: "Adaptive window size: AVG of a large window, worst case of a small one",
		Artifact: "Section 9 trade-off discussion (extension)", claims: []func(*out){e17}},
	{ID: "E18", Title: "Joint reads: one connection for many data items",
		Artifact: "Section 7.2 premise, protocol realization (extension)", claims: []func(*out){e18}},
	{ID: "E19", Title: "Bursty (Markov-modulated) workloads: window size vs burst length",
		Artifact: "Section 3 workload model stressed (extension)", claims: []func(*out){e19}},
	{ID: "E20", Title: "Mechanized competitive analysis: exact ratios from the adversary game",
		Artifact: "Theorems 4, 11, 12 re-derived; new exact factors (extension)", claims: []func(*out){e20}},
	{ID: "E21", Title: "The value of foresight: receding-horizon players between online and offline",
		Artifact: "Competitive-analysis framing of section 3 quantified (extension)", claims: []func(*out){e21}},
	{ID: "E22", Title: "Revalidation: reconnect refreshes cost version checks, not payloads",
		Artifact: "Disconnected operation (Coda citation in section 8) meets the cost model (extension)",
		claims:   []func(*out){e22}},
}

const e03Specs = "ST1 ST2 SW1 SW3 SW5 SW9 SW15"

// e06 is equations 7, 9 and 11 and the Theorem 9 envelope at one omega.
func e06(omega float64) sweep {
	ss := specs("ST1 ST2 SW1 SW5 SW9")
	return sweep{
		Title: "EXP(theta), message model, omega=" + report.F(omega, 2),
		Cols:  pairCols("theta", ss, "envelope min"),
		Grid:  []float64{0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9}, Specs: ss, Model: msgAt(omega), Predict: exp,
		Measure: expected(200000, 10000), SeedPerSpec: true, Tol: tolExp,
		Row: func(o *out, cs []cell) []string {
			return append(pairs(o, cs), report.F(analytic.MinExpectedMsg(cs[0].x, omega), 4))
		},
		Err:   "sweep",
		Notes: []string{"Theorem 9: SW5 and SW9 never beat the {ST1, ST2, SW1} envelope at fixed theta"},
	}
}

// e07 is equation 12 against the Corollary 2 lower bound 1/4 + omega/8
// at one omega.
func e07(omega float64) sweep {
	bound := analytic.AvgSWMsgLowerBound(omega)
	corollary := "omega <= 0.4: SW1 has the least AVG among all window sizes (Corollary 3)"
	if omega > analytic.OmegaBreakEven {
		corollary = "omega > 0.4: windows k >= " + report.I(analytic.MinOddKBeatingSW1(omega)) + " beat SW1 (Corollary 4)"
	}
	return sweep{
		Title: "AVG, message model, omega=" + report.F(omega, 2),
		Cols:  []string{"algorithm", "AVG theory", "AVG sim", "above bound 1/4+w/8"},
		Grid:  []float64{0}, Specs: specs("ST1 ST2 SW1 SW3 SW7 SW15 SW39"), Model: msgAt(omega), Predict: avg,
		Measure: drift{800, 80, 500, 200}.measure, Tol: tolAvg, Rel: true, Lag: lagAvg, Long: true,
		Row: func(_ *out, cs []cell) []string {
			return []string{cs[0].s.String(), report.F(cs[0].theory, 4), report.F(cs[0].got, 4),
				report.Pct(cs[0].theory/bound - 1)}
		},
		Notes: []string{"Corollary 2: AVG_SWk decreases in k toward (not reaching) " + report.F(bound, 4), corollary},
	}
}
