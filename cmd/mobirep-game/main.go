// Command mobirep-game runs the mechanized competitive analysis: for any
// finite-state allocation policy it computes the exact competitive ratio
// against the ideal offline algorithm, verifies a claimed bound, or
// extracts the adversarial witness schedule — the paper's worst-case
// theorems as a command line.
//
// Examples:
//
//	mobirep-game -policy SW9                      # ratio in the connection model
//	mobirep-game -policy SW3 -model message -omega 0.5
//	mobirep-game -policy T1:4 -verify 5           # is T1:4 5-competitive?
//	mobirep-game -policy SW5 -witness             # print the adversary's cycle
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"mobirep/internal/analytic"
	"mobirep/internal/core"
	"mobirep/internal/cost"
	"mobirep/internal/offline"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mobirep-game", flag.ContinueOnError)
	fs.SetOutput(stderr)
	policyName := fs.String("policy", "SW9", "finite-state policy: ST1, ST2, SWk, SWek, T1:m, T2:m, CacheInv")
	modelName := fs.String("model", "connection", "cost model: connection or message")
	omega := fs.Float64("omega", 0.5, "control/data cost ratio for the message model")
	limit := fs.Float64("limit", 64, "give up (report not-competitive) above this factor")
	tol := fs.Float64("tol", 1e-7, "binary-search tolerance on the ratio")
	verify := fs.Float64("verify", 0, "verify this bound instead of searching for the ratio")
	witness := fs.Bool("witness", false, "also extract and check the adversarial witness cycle")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	spec, err := core.ParsePolicy(*policyName)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	p, ok := spec.New().(core.Enumerable)
	if !ok {
		fmt.Fprintf(stderr, "policy %s is not finite-state; the game solver cannot analyze it\n", *policyName)
		return 2
	}
	var model cost.Model
	switch strings.ToLower(*modelName) {
	case "connection", "conn":
		model = cost.NewConnection()
	case "message", "msg":
		model = cost.NewMessage(*omega)
	default:
		fmt.Fprintf(stderr, "unknown cost model %q\n", *modelName)
		return 2
	}

	if *verify > 0 {
		ok, err := analytic.VerifyCompetitive(p, model, *verify)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s is %v-competitive under %s: %v\n", p.Name(), *verify, model.Name(), ok)
		if !ok {
			return 3
		}
		return 0
	}

	ratio, err := analytic.CompetitiveRatio(p, model, *limit, *tol)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if math.IsInf(ratio, 1) {
		fmt.Fprintf(stdout, "%s under %s: NOT competitive (no factor below %g)\n",
			p.Name(), model.Name(), *limit)
		return 0
	}
	fmt.Fprintf(stdout, "%s under %s: exactly %.6f-competitive\n", p.Name(), model.Name(), ratio)

	if *witness {
		cycle, gain, err := analytic.WorstSchedule(p, model, ratio-10**tol-0.01)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "witness cycle: %q (adversary gains %.4f per request at that factor)\n",
			cycle.String(), gain)
		reps := 4000/len(cycle) + 1
		s := cycle.Repeat(reps)
		q := spec.New()
		online := 0.0
		for _, op := range s {
			online += model.StepCost(q.Apply(op))
		}
		opt := offline.Cost(s, offline.Ideal())
		if opt > 0 {
			fmt.Fprintf(stdout, "check: %d repetitions force ratio %.4f\n", reps, online/opt)
		}
	}
	return 0
}
