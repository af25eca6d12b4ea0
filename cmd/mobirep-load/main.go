// mobirep-load runs one row of internal/load's case table: a fleet of
// client sessions attached in-process, driven with reads against
// background writes, measured, and gated. -case picks the row; every
// other flag overrides one field of it and defaults to the row's value.
//
//	mobirep-load -sessions 100000 -duration 5s
//	mobirep-load -sessions 5000 -duration 30s -floor-sessions-per-sec 500
//	mobirep-load -case overload -capacity 3000 -sessions 6000 -duration 30s \
//	    -mem-soft-limit 67108864 -ceil-p99 100ms -max-goroutine-growth 8
//	mobirep-load -case tree -sessions 5000 -mode ST2 -placement T1:2 -handoff-every 100
//
// The exit status is 1 when the run fails one of the row's gates or an
// invariant every run must hold (load.Check), and 2 for a flag the row
// does not read.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"mobirep/internal/load"
	"mobirep/internal/replica"
	"mobirep/internal/transport"
	"mobirep/internal/tree"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// readers names, for each flag not every case reads, the cases that do.
var readers = map[string][]string{
	"chaos":                  {"fleet"},
	"floor-sessions-per-sec": {"fleet", "tree"},
	"capacity":               {"overload"},
	"mem-soft-limit":         {"overload"},
	"ceil-p99":               {"overload"},
	"max-goroutine-growth":   {"overload"},
	"stations":               {"tree"},
	"placement":              {"tree"},
	"handoff-every":          {"tree"},
}

// flags binds every flag to a field of c, so c's values are the
// defaults.
func flags(c *load.Case, name *string, jsonOut *bool) *flag.FlagSet {
	fs := flag.NewFlagSet("mobirep-load", flag.ContinueOnError)
	var names []string
	for _, c := range load.Cases {
		names = append(names, c.Name)
	}
	fs.StringVar(name, "case", "fleet", "case to run: "+strings.Join(names, ", "))
	fs.BoolVar(jsonOut, "json", false, "emit the result as JSON instead of text")
	fs.IntVar(&c.Sessions, "sessions", c.Sessions, "clients that attach (overload: refused ones included)")
	fs.IntVar(&c.Shards, "shards", c.Shards, "server shard count (power of two, 0 = automatic)")
	fs.Func("mode", fmt.Sprintf("allocation mode: SWk, ST1 or ST2 (default %v)", c.Mode), func(s string) (err error) {
		c.Mode, err = replica.ParseMode(s)
		return err
	})
	fs.IntVar(&c.Keys, "keys", c.Keys, "shared key-pool size (0 = an eighth of the admitted fleet, at least 16)")
	fs.DurationVar(&c.Duration, "duration", c.Duration, "drive phase length")
	fs.Uint64Var(&c.Seed, "seed", c.Seed, "base seed for fault and drive RNGs")
	fs.DurationVar(&c.Timeout, "timeout", c.Timeout, "per-read timeout (0 = wait for ever)")
	fs.IntVar(&c.Writers, "writers", c.Writers, "background server-write goroutines")
	fs.Func("chaos", "fault spec for every session's links (key=value pairs: drop, dup, reorder, delay, maxdelay, crash, part, partlen); empty disables faults",
		func(s string) (err error) {
			c.Chaos, err = transport.ParseChaosSpec(s)
			return err
		})
	fs.Float64Var(&c.Expect.FloorSessionsPerSec, "floor-sessions-per-sec", c.Expect.FloorSessionsPerSec,
		"exit 1 when the attach rate falls below this (0 disables; skipped under 100 sessions)")
	fs.IntVar(&c.Capacity, "capacity", c.Capacity, "server admission cap (MaxSessions)")
	fs.Int64Var(&c.MemSoftLimit, "mem-soft-limit", c.MemSoftLimit,
		"soft watermark on accounted server bytes; idle-longest sessions are shed while over it (0 disables)")
	fs.DurationVar(&c.Expect.CeilP99, "ceil-p99", c.Expect.CeilP99,
		"exit 1 when the healthy fleet's read p99 exceeds this (0 disables; skipped under 100 samples)")
	fs.IntVar(&c.Expect.MaxGoroutineGrowth, "max-goroutine-growth", c.Expect.MaxGoroutineGrowth,
		"exit 1 when more goroutines than this survive teardown (0 disables)")
	fs.IntVar(&c.Stations, "stations", c.Stations, "binary-tree station count (heap order, station 0 the root)")
	fs.Func("placement", fmt.Sprintf("per-relay placement policy: none, SWk, T1:m or T2:m (default %v)", c.Placement),
		func(s string) (err error) {
			c.Placement, err = tree.ParsePolicy(s)
			return err
		})
	fs.IntVar(&c.HandoffEvery, "handoff-every", c.HandoffEvery,
		"each worker hands one of its MCs to a random other leaf every N reads (0 = no motion)")
	return fs
}

func run(args []string, stdout, stderr io.Writer) int {
	// Parse once to learn the case, then again with every flag bound to
	// that row.
	var name string
	var jsonOut bool
	probe := flags(&load.Case{}, &name, &jsonOut)
	probe.SetOutput(io.Discard)
	_ = probe.Parse(args) // the second parse reports any error
	c, ok := load.Named(name)
	if !ok {
		fmt.Fprintf(stderr, "mobirep-load: no case %q\n", name)
		return 2
	}
	fs := flags(&c, &name, &jsonOut)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	code := 0
	fs.Visit(func(f *flag.Flag) {
		if cases, ok := readers[f.Name]; ok && !slices.Contains(cases, c.Name) {
			fmt.Fprintf(stderr, "mobirep-load: case %s does not read -%s (only %s)\n", c.Name, f.Name, strings.Join(cases, ", "))
			code = 2
		}
	})
	if code != 0 {
		return code
	}

	res, err := load.Run(c)
	if err != nil {
		fmt.Fprintln(stderr, "mobirep-load:", err)
		return 1
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(stderr, "mobirep-load:", err)
			return 1
		}
	} else {
		report(stdout, c, res)
	}
	if err := load.Check(c, res); err != nil {
		fmt.Fprintln(stderr, "mobirep-load:", err)
		return 1
	}
	return 0
}

// report prints res as text, one line per concern the case touches.
func report(w io.Writer, c load.Case, r load.Result) {
	fmt.Fprintf(w, "mobirep-load %s: %d sessions over %d shards (mode %v, %d keys, %d workers)\n",
		r.Case, r.Sessions, r.Shards, c.Mode, r.Keys, r.Workers)
	if c.Stations > 0 {
		fmt.Fprintf(w, "  tree: %d stations / %d leaves, placement %v\n", r.Stations, r.Leaves, c.Placement)
	}
	fmt.Fprintf(w, "  attach: %.2fs  %.0f sessions/sec\n", r.AttachSeconds, r.SessionsPerSec)
	if c.Capacity > 0 {
		fmt.Fprintf(w, "  admission: capacity %d, %d admitted, %d rejected, %d Busy frames delivered\n",
			c.Capacity, r.Admitted, r.Rejected, r.BusyFrames)
		fmt.Fprintf(w, "  faults: %d stalled readers, %d sessions shed to the memory budget\n", r.Stalled, r.Shed)
	}
	fmt.Fprintf(w, "  drive:  %.2fs  %d reads (%.0f reads/sec), %d errors; %d writes (%.0f writes/sec)\n",
		r.DriveSeconds, r.Ops, r.OpsPerSec, r.Errors, r.Writes, r.WritesPerSec)
	fmt.Fprintf(w, "  read latency: p50=%v p90=%v p99=%v max=%v (%d samples)\n", r.P50, r.P90, r.P99, r.Max, r.Samples)
	if c.Stations == 0 {
		fmt.Fprintf(w, "  shard occupancy: min=%d max=%d\n", r.ShardMin, r.ShardMax)
	}
	if c.HandoffEvery > 0 {
		fmt.Fprintf(w, "  handoffs: %d (%d cold)  latency p50=%v p99=%v max=%v\n",
			r.Handoffs, r.ColdHandoffs, r.HandoffP50, r.HandoffP99, r.HandoffMax)
	}
	if c.RestartEvery > 0 {
		fmt.Fprintf(w, "  restarts: %d (epoch %d), %d fences, %d acknowledged writes lost, %d rollbacks\n",
			r.Restarts, r.FinalEpoch, r.Fences, r.LostAcked, r.Rollbacks)
	}
	fmt.Fprintf(w, "  memory: heap peak %d bytes, accounted peak %d bytes\n", r.HeapPeakBytes, r.MemAccountPeak)
	fmt.Fprintf(w, "  goroutines: %d before, %d after teardown\n", r.GoroutinesBefore, r.GoroutinesAfter)
}
