// Command mobirep-sim runs ad-hoc allocation simulations: one policy, one
// cost model, one workload, with theory printed beside the measurement
// when a closed form exists.
//
// Examples:
//
//	mobirep-sim -policy SW9 -theta 0.3 -model connection -ops 1000000
//	mobirep-sim -policy SW1 -model message -omega 0.8 -avg
//	mobirep-sim -policy T1:7 -theta 0.8 -trials 16
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mobirep/internal/analytic"
	"mobirep/internal/core"
	"mobirep/internal/cost"
	"mobirep/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mobirep-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	policyName := fs.String("policy", "SW9", "policy: ST1, ST2, SWk, SWek, T1:m, T2:m, CacheInv or EWMA:alpha")
	theta := fs.Float64("theta", 0.5, "write probability (fixed-theta mode)")
	modelName := fs.String("model", "connection", "cost model: connection or message")
	omega := fs.Float64("omega", 0.5, "control/data cost ratio for the message model")
	ops := fs.Int("ops", 200000, "priced requests per trial")
	warmup := fs.Int("warmup", 1000, "unpriced leading requests per trial")
	trials := fs.Int("trials", 8, "independent trials")
	seed := fs.Uint64("seed", 1, "random seed")
	avg := fs.Bool("avg", false, "measure AVG (drifting theta) instead of EXP (fixed theta)")
	periods := fs.Int("periods", 400, "periods for -avg")
	opsPerPeriod := fs.Int("ops-per-period", 500, "requests per period for -avg")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	spec, err := core.ParsePolicy(*policyName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	factory := spec.New
	var model cost.Model
	switch strings.ToLower(*modelName) {
	case "connection", "conn":
		model = cost.NewConnection()
	case "message", "msg":
		model = cost.NewMessage(*omega)
	default:
		fmt.Fprintf(stderr, "unknown cost model %q (want connection or message)\n", *modelName)
		return 2
	}

	if *avg {
		sum := sim.EstimateAverage(factory, model, sim.AverageOpts{
			Periods: *periods, OpsPerPeriod: *opsPerPeriod, Trials: *trials, Seed: *seed,
		})
		fmt.Fprintf(stdout, "policy=%s model=%s measure=AVG\n", factory().Name(), model.Name())
		fmt.Fprintf(stdout, "measured: %s\n", sum.String())
		if theory, ok := theoryAvg(spec, *modelName, *omega); ok {
			fmt.Fprintf(stdout, "theory:   %.6f (paper closed form)\n", theory)
		}
		return 0
	}

	sum := sim.EstimateExpected(factory, model, sim.ExpectedOpts{
		Theta: *theta, Ops: *ops, Warmup: *warmup, Trials: *trials, Seed: *seed,
	})
	fmt.Fprintf(stdout, "policy=%s model=%s theta=%.3f measure=EXP\n", factory().Name(), model.Name(), *theta)
	fmt.Fprintf(stdout, "measured: %s\n", sum.String())
	if theory, ok := theoryExp(spec, *modelName, *theta, *omega); ok {
		fmt.Fprintf(stdout, "theory:   %.6f (paper closed form)\n", theory)
	}
	return 0
}

// theoryExp returns the closed-form EXP when the paper gives one.
func theoryExp(spec core.Spec, model string, theta, omega float64) (float64, bool) {
	msg := strings.HasPrefix(strings.ToLower(model), "m")
	switch spec.Kind {
	case core.KindST1:
		if msg {
			return analytic.ExpST1Msg(theta, omega), true
		}
		return analytic.ExpST1Conn(theta), true
	case core.KindST2:
		if msg {
			return analytic.ExpST2Msg(theta), true
		}
		return analytic.ExpST2Conn(theta), true
	case core.KindSW:
		if msg {
			return analytic.ExpSWMsg(spec.K, theta, omega), true
		}
		return analytic.ExpSWConn(spec.K, theta), true
	case core.KindT1:
		if msg {
			return 0, false // no closed form in the paper; use the oracle via the library
		}
		return analytic.ExpT1Conn(spec.K, theta), true
	case core.KindT2:
		if msg {
			return 0, false
		}
		return analytic.ExpT2Conn(spec.K, theta), true
	}
	return 0, false
}

// theoryAvg returns the closed-form AVG when the paper gives one.
func theoryAvg(spec core.Spec, model string, omega float64) (float64, bool) {
	msg := strings.HasPrefix(strings.ToLower(model), "m")
	switch spec.Kind {
	case core.KindST1:
		if msg {
			return analytic.AvgST1Msg(omega), true
		}
		return analytic.AvgST1Conn, true
	case core.KindST2:
		if msg {
			return analytic.AvgST2Msg, true
		}
		return analytic.AvgST2Conn, true
	case core.KindSW:
		if msg {
			return analytic.AvgSWMsg(spec.K, omega), true
		}
		return analytic.AvgSWConn(spec.K), true
	}
	return 0, false
}
