// Command mobirep-trace generates, inspects and re-prices request traces.
//
// Subcommands:
//
//	gen  -out trace.txt -lambda-r 2 -lambda-w 1 -n 10000 [-seed N]
//	    Sample the paper's Poisson workload and write a timed trace.
//
//	info -in trace.txt
//	    Print counts, the empirical theta, and run-length structure.
//
//	cost -in trace.txt -policy SW9 [-policy ST1 ...] [-omega 0.5]
//	    Replay the trace through policies and print each one's cost in
//	    both models, next to the ideal offline optimum.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mobirep/internal/core"
	"mobirep/internal/cost"
	"mobirep/internal/offline"
	"mobirep/internal/sim"
	"mobirep/internal/stats"
	"mobirep/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches the subcommands; split from main for testability.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(stderr, "usage: mobirep-trace {gen|info|cost} [flags]")
		return 2
	}
	var err error
	switch args[0] {
	case "gen":
		err = cmdGen(args[1:], stdout)
	case "info":
		err = cmdInfo(args[1:], stdout)
	case "cost":
		err = cmdCost(args[1:], stdout)
	default:
		fmt.Fprintln(stderr, "usage: mobirep-trace {gen|info|cost} [flags]")
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

func cmdGen(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	out := fs.String("out", "trace.txt", "output file")
	lambdaR := fs.Float64("lambda-r", 2, "read rate")
	lambdaW := fs.Float64("lambda-w", 1, "write rate")
	n := fs.Int("n", 10000, "number of requests")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rng := stats.NewRNG(*seed)
	ops := workload.PoissonMerged(rng, *lambdaR, *lambdaW, *n)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := workload.WriteTimed(f, ops); err != nil {
		return err
	}
	theta := *lambdaW / (*lambdaW + *lambdaR)
	fmt.Fprintf(stdout, "wrote %d requests to %s (theta = %.3f)\n", len(ops), *out, theta)
	return nil
}

func cmdInfo(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	in := fs.String("in", "trace.txt", "input file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ops, err := load(*in)
	if err != nil {
		return err
	}
	s := workload.StripTimes(ops)
	reads, writes := s.Counts()
	fmt.Fprintf(stdout, "requests:  %d (%d reads, %d writes)\n", len(s), reads, writes)
	fmt.Fprintf(stdout, "theta:     %.4f (empirical write fraction)\n", s.WriteFraction())
	if len(ops) > 1 {
		span := ops[len(ops)-1].At - ops[0].At
		fmt.Fprintf(stdout, "time span: %.2f (rate %.3f requests/unit)\n", span, float64(len(ops))/span)
	}
	runs := s.Runs()
	longest := 0
	for _, r := range runs {
		if r.Len > longest {
			longest = r.Len
		}
	}
	fmt.Fprintf(stdout, "runs:      %d maximal runs, longest %d\n", len(runs), longest)
	fmt.Fprintf(stdout, "burstiness: lag-1 autocorrelation %+.4f (0 = Poisson-like, >0 = bursty)\n",
		s.Lag1Correlation())
	fmt.Fprintf(stdout, "offline:   ideal optimum costs %.0f on this trace\n",
		offline.Cost(s, offline.Ideal()))
	return nil
}

func cmdCost(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cost", flag.ContinueOnError)
	in := fs.String("in", "trace.txt", "input file")
	omega := fs.Float64("omega", 0.5, "control/data ratio for the message model")
	var policies multiFlag
	fs.Var(&policies, "policy", "policy to replay (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(policies) == 0 {
		policies = []string{"ST1", "ST2", "SW1", "SW9"}
	}

	ops, err := load(*in)
	if err != nil {
		return err
	}
	s := workload.StripTimes(ops)
	opt := offline.Cost(s, offline.Ideal())
	fmt.Fprintf(stdout, "%-8s %14s %18s %12s\n", "policy", "connections", "message(w="+fmt.Sprintf("%.2f", *omega)+")", "vs offline")
	fmt.Fprintf(stdout, "%-8s %14.0f %18.2f %12s\n", "OPT", opt, opt, "1.00")
	for _, name := range policies {
		spec, err := core.ParsePolicy(name)
		if err != nil {
			return err
		}
		conn := sim.Replay(spec.New(), cost.NewConnection(), s, 0).Cost
		msg := sim.Replay(spec.New(), cost.NewMessage(*omega), s, 0).Cost
		ratio := "inf"
		if opt > 0 {
			ratio = fmt.Sprintf("%.2f", conn/opt)
		}
		fmt.Fprintf(stdout, "%-8s %14.0f %18.2f %12s\n", name, conn, msg, ratio)
	}
	return nil
}

func load(path string) ([]workload.TimedOp, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return workload.ReadTimed(f)
}

type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint([]string(*m)) }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}
