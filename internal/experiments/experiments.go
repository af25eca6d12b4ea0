// Package experiments regenerates every figure and numbered result of the
// paper's evaluation. The experiments are one table (rows.go): each row
// names a paper artifact and the claims that reproduce it, and each claim
// pairs a closed-form prediction from internal/analytic with a
// measurement of the implemented system (simulator, offline optimum, game
// solver or distributed protocol), prints both side by side the way
// EXPERIMENTS.md records them, and gates every printed pair by the
// claim's tolerance.
//
// The table is consumed by the mobirep-bench executable, by bench_test.go
// and by this package's tests, which fail on any pair outside its
// tolerance.
package experiments

import (
	"fmt"
	"math"

	"mobirep/internal/report"
	"mobirep/internal/sim"
)

// Config tunes how heavy the experiment runs are.
type Config struct {
	// Seed makes all measurements reproducible.
	Seed uint64
	// Quick shrinks workloads by roughly an order of magnitude; used by
	// tests and benchmarks that only need the shape, not tight CIs.
	Quick bool
}

// scale returns full when Quick is off, otherwise quick.
func (c Config) scale(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Experiment reproduces one paper artifact: one row of the table.
type Experiment struct {
	// ID is the index used by EXPERIMENTS.md and the CLI, e.g. "E01".
	ID string
	// Title is a one-line description.
	Title string
	// Artifact names the paper figure/equation/theorem reproduced.
	Artifact string
	// claims render the row's tables in order, each gating what it
	// prints: a sweep's render, or a bespoke layout for tables that are
	// not one sweep.
	claims []func(o *out)
}

// All returns every experiment in ID order.
func All() []Experiment { return append([]Experiment(nil), rows...) }

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range rows {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// Run executes the experiment and returns its result tables.
func (e Experiment) Run(c Config) []*report.Table { return e.run(c).tables }

// run executes every claim of the row.
func (e Experiment) run(c Config) *out {
	o := &out{Config: c}
	for _, claim := range e.claims {
		claim(o)
	}
	return o
}

// out is one run of a row: its tables, and one line per printed pair or
// verdict that fell outside its claim's tolerance.
type out struct {
	Config
	tables []*report.Table
	misses []string
}

// table appends a new table to the run.
func (o *out) table(title string, cols ...string) *report.Table {
	t := report.New(title, cols...)
	o.tables = append(o.tables, t)
	return t
}

// hold records a miss unless ok.
func (o *out) hold(ok bool, format string, args ...any) {
	if !ok {
		o.misses = append(o.misses, fmt.Sprintf(format, args...))
	}
}

// near gates one printed pair, |got - theory| <= tol, and returns the gap.
func (o *out) near(tol, theory, got float64, what string) float64 {
	d := math.Abs(got - theory)
	o.hold(d <= tol, "%s: measured %.6g, predicted %.6g, gap %.3g > tolerance %.3g", what, got, theory, d, tol)
	return d
}

// gridRun evaluates cell(i) for every i in [0, n) concurrently on the
// simulator's worker pool and returns the results in cell order. Cells
// must be pure functions of their index: each derives its own seed and
// touches no shared state, so the tables are byte-identical at any
// parallelism (TestGridMatchesSequential).
func gridRun[T any](n int, cell func(i int) T) []T {
	res := make([]T, n)
	sim.Fan(n, func(i int) { res[i] = cell(i) })
	return res
}

// mark is a verdict's printed form.
var mark = map[bool]string{true: "yes", false: "no"}

// must panics on err. An experiment has no caller to return an error to;
// mobirep-bench reports the panic as that experiment's failure.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}
