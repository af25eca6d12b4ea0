package experiments

import (
	"math"
	"strings"

	"mobirep/internal/analytic"
	"mobirep/internal/core"
	"mobirep/internal/cost"
	"mobirep/internal/report"
	"mobirep/internal/sched"
	"mobirep/internal/sim"
	"mobirep/internal/workload"
)

// sweep is the claim "closed form Predict agrees with measurement Measure
// within Tol" at every cell of a grid: each point of Grid (theta, omega,
// a period count) under each of Specs. The runner measures the cells
// concurrently, gates each one, and lays the table out under the header
// Cols: wide, one row per point, or Long, one row per cell, spec-major.
type sweep struct {
	Title   string
	Cols    []string
	Grid    []float64
	Specs   []core.Spec
	Model   func(x float64) cost.Model
	Predict func(s core.Spec, m cost.Model, x float64) float64
	Measure measure
	// SeedPerSpec draws spec j's cells from Seed+j; otherwise every cell
	// draws from Seed.
	SeedPerSpec bool
	// Tol bounds |measurement - prediction|, as a fraction of the
	// prediction when Rel is set. Lag widens the bound above by Lag per
	// unit of window size.
	Tol, Lag  float64
	Rel, Long bool
	// Row renders one row: the cells at one point, or one cell when Long.
	// It gates through o any verdict it prints beyond the cells' pairs.
	Row func(o *out, cs []cell) []string
	// Err, when set, names the grid in a note with its largest gap.
	Err   string
	Notes []string
}

// cell is one measurement beside its prediction; more holds the extra
// cells its measure prints.
type cell struct {
	s              core.Spec
	x, theory, got float64
	more           []string
}

// measure takes one cell's measurement at point x from seed.
type measure func(c Config, s core.Spec, m cost.Model, x float64, seed uint64) (float64, []string)

// cells measures and gates every cell, point-major.
func (w sweep) cells(o *out) []cell {
	n := len(w.Specs)
	cs := gridRun(len(w.Grid)*n, func(i int) cell {
		s, x := w.Specs[i%n], w.Grid[i/n]
		seed := o.Seed
		if w.SeedPerSpec {
			seed += uint64(i % n)
		}
		m := w.Model(x)
		got, more := w.Measure(o.Config, s, m, x, seed)
		return cell{s, x, w.Predict(s, m, x), got, more}
	})
	for _, c := range cs {
		tol := w.Tol
		if w.Rel {
			tol *= c.theory
		}
		lo, hi := c.theory-tol, c.theory+tol+w.Lag*float64(c.s.K)
		o.hold(lo <= c.got && c.got <= hi, "%s: %s at %v measured %.6g, predicted %.6g, outside [%.6g, %.6g]",
			w.Title, name(c.s), c.x, c.got, c.theory, lo, hi)
	}
	return cs
}

func (w sweep) render(o *out) {
	cs, n := w.cells(o), len(w.Specs)
	t := o.table(w.Title, w.Cols...)
	if w.Long {
		for j := range n {
			for p := range w.Grid {
				t.AddRow(w.Row(o, cs[p*n+j:p*n+j+1])...)
			}
		}
	} else {
		for p := range w.Grid {
			t.AddRow(w.Row(o, cs[p*n:(p+1)*n])...)
		}
	}
	if w.Err != "" {
		gap := 0.0
		for _, c := range cs {
			gap = max(gap, math.Abs(c.got-c.theory))
		}
		t.AddNote("max |sim - theory| over the %s: %.5f", w.Err, gap)
	}
	for _, note := range w.Notes {
		t.AddNote("%s", note)
	}
}

// pairs is the wide row: the point, then each spec's theory and
// measurement.
func pairs(_ *out, cs []cell) []string {
	row := []string{report.F(cs[0].x, 2)}
	for _, c := range cs {
		row = append(row, report.F(c.theory, 4), report.F(c.got, 4))
	}
	return row
}

// pairCols is the wide header: the point's column, a thry/sim pair per
// spec, then tail.
func pairCols(point string, specs []core.Spec, tail ...string) []string {
	cols := []string{point}
	for _, s := range specs {
		cols = append(cols, s.String()+" thry", s.String()+" sim")
	}
	return append(cols, tail...)
}

// specs parses a space-separated list of method spellings.
func specs(list string) []core.Spec {
	var ss []core.Spec
	for _, f := range strings.Fields(list) {
		ss = append(ss, must(core.ParseSpec(f)))
	}
	return ss
}

// name is the tables' spelling of a method: the Spec's, with the T
// family's threshold in parentheses.
func name(s core.Spec) string {
	if s.Kind == core.KindT1 || s.Kind == core.KindT2 {
		return strings.Replace(s.String(), ":", "(", 1) + ")"
	}
	return s.String()
}

func conn(float64) cost.Model { return cost.NewConnection() }

// msgAt is the message model at a fixed omega; msg takes omega from the
// grid point.
func msgAt(omega float64) func(float64) cost.Model {
	return func(float64) cost.Model { return cost.NewMessage(omega) }
}

func msg(omega float64) cost.Model { return cost.NewMessage(omega) }

// exp is EXP(theta): equations 2 and 5 and section 7.1 in the connection
// model, equations 7, 9 and 11 in the message model.
func exp(s core.Spec, m cost.Model, theta float64) float64 {
	if mm, ok := m.(cost.Message); ok {
		switch s.Kind {
		case core.KindST1:
			return analytic.ExpST1Msg(theta, mm.Omega)
		case core.KindST2:
			return analytic.ExpST2Msg(theta)
		}
		return analytic.ExpSWMsg(s.K, theta, mm.Omega)
	}
	switch s.Kind {
	case core.KindST1:
		return analytic.ExpST1Conn(theta)
	case core.KindST2:
		return analytic.ExpST2Conn(theta)
	case core.KindT1:
		return analytic.ExpT1Conn(s.K, theta)
	}
	return analytic.ExpSWConn(s.K, theta)
}

// avg is AVG: equations 3 and 6 in the connection model, 8, 10 and 12
// in the message model, where callback invalidation is SW1.
func avg(s core.Spec, m cost.Model, _ float64) float64 {
	if mm, ok := m.(cost.Message); ok {
		switch s.Kind {
		case core.KindST1:
			return analytic.AvgST1Msg(mm.Omega)
		case core.KindST2:
			return analytic.AvgST2Msg
		case core.KindCacheInv:
			return analytic.AvgSW1Msg(mm.Omega)
		}
		return analytic.AvgSWMsg(s.K, mm.Omega)
	}
	if s.Kind == core.KindSW {
		return analytic.AvgSWConn(s.K)
	}
	return analytic.AvgST1Conn
}

// factor is the paper's tight competitive factor: k+1 and m+1 in the
// connection model (Theorem 4, section 7.1), Theorems 11 and 12 in the
// message model.
func factor(s core.Spec, m cost.Model, _ float64) float64 {
	if mm, ok := m.(cost.Message); ok {
		return analytic.CompetitiveSWMsg(s.K, mm.Omega)
	}
	return float64(s.K + 1)
}

// expected measures EXP at theta = x over 8 trials of full (quick)
// requests.
func expected(full, quick int) measure {
	return func(c Config, s core.Spec, m cost.Model, theta float64, seed uint64) (float64, []string) {
		return sim.EstimateExpected(s.New, m,
			sim.ExpectedOpts{Theta: theta, Ops: c.scale(full, quick), Seed: seed}).Mean(), nil
	}
}

// drift is AVG's measurement: 8 trials of drifting theta, periods
// (quick) periods of ops (quick) requests each.
type drift struct{ periods, quickPeriods, ops, quickOps int }

func (d drift) of(c Config, f sim.Factory, m cost.Model, seed uint64) float64 {
	return sim.EstimateAverage(f, m, sim.AverageOpts{Periods: c.scale(d.periods, d.quickPeriods),
		OpsPerPeriod: c.scale(d.ops, d.quickOps), Seed: seed}).Mean()
}

func (d drift) measure(c Config, s core.Spec, m cost.Model, _ float64, seed uint64) (float64, []string) {
	return d.of(c, s.New, m, seed), nil
}

// onFamily measures the competitive ratio on family(s, cycles); more is
// the online and the offline cost.
func onFamily(family func(s core.Spec, cycles int) sched.Schedule, full, quick int) measure {
	return func(c Config, s core.Spec, m cost.Model, _ float64, _ uint64) (float64, []string) {
		res := workload.MeasureRatio(s.New(), m, family(s, c.scale(full, quick)))
		return res.Ratio, []string{report.F(res.OnlineCost, 0), report.F(res.OfflineCost, 0)}
	}
}

// tight is the paper's tight family of each window and threshold:
// (r^(n+1) w^(n+1))^N for SWk, and section 7.1's for T1m and T2m.
func tight(s core.Spec, cycles int) sched.Schedule {
	switch s.Kind {
	case core.KindT1:
		return workload.T1Adversary(s.K, cycles)
	case core.KindT2:
		return workload.T2Adversary(s.K, cycles)
	}
	return workload.SWkAdversary(s.K, cycles)
}

// search is the exhaustive worst-case claim for SW1 and SW3: every
// schedule of length full (quick) whose offline cost is at least 2. A
// finite schedule's ratio carries the competitive bound's additive
// constant b, b/2 at that offline-cost floor, and on these windows b is
// the bound itself: the worst ratio found lies in [bound, 1.5 bound], and
// reaching the bound witnesses tightness.
func search(title, bound string, m cost.Model, decimals, full, quick int, notes ...string) func(*out) {
	return func(o *out) {
		n := o.scale(full, quick)
		t := o.table(title+report.I(n)+")", "k", bound, "worst ratio found", "worst schedule")
		for _, s := range specs("SW1 SW3") {
			res, c := workload.WorstRatio(s.New(), m, n, 2), factor(s, m, 0)
			o.hold(c <= res.Ratio && res.Ratio <= 1.5*c, "worst ratio of %v over length %d: %v, bound %v", s, n, res.Ratio, c)
			t.AddRow(report.I(s.K), report.F(c, decimals), report.F(res.Ratio, 4), res.Schedule.String())
		}
		for _, note := range notes {
			t.AddNote("%s", note)
		}
	}
}
