// Command mobirep-bench regenerates the paper's figures and numbered
// results: it runs the experiments of internal/experiments and prints
// their tables, which EXPERIMENTS.md records.
//
// Usage:
//
//	mobirep-bench [-quick] [-seed N] [-parallel N] [-csv|-json] [-out DIR] [-list] [E01 E05 ...]
//
// With no experiment IDs, every experiment runs in ID order. Independent
// experiments run concurrently (-parallel, default GOMAXPROCS) on top of
// the simulator's own grid- and trial-level parallelism; output is always
// emitted in ID order and stdout is byte-identical at any parallelism for
// the same seed: `mobirep-bench -seed 1994` reproduces bench_tables.txt.
// Each experiment's wall-clock time goes to stderr (and into -json's
// records); speed is measured by the repository benchmark, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mobirep/internal/experiments"
	"mobirep/internal/report"
	"mobirep/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonTable mirrors report.Table for -json output.
type jsonTable struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// jsonExperiment is one experiment's -json record.
type jsonExperiment struct {
	ID       string      `json:"id"`
	Title    string      `json:"title"`
	Artifact string      `json:"artifact"`
	Seconds  float64     `json:"seconds"`
	Tables   []jsonTable `json:"tables"`
}

// outcome carries one experiment's results from its worker goroutine.
type outcome struct {
	tables  []*report.Table
	elapsed time.Duration
	err     any
}

// run is main's testable body.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mobirep-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run reduced workloads (order-of-magnitude faster)")
	seed := fs.Uint64("seed", 1994, "base random seed for all measurements")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := fs.Bool("json", false, "emit one JSON document with tables and wall-clock timings")
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"experiments (and simulator workers) to run concurrently; 1 forces fully sequential execution")
	outDir := fs.String("out", "", "also write one file per experiment into this directory")
	list := fs.Bool("list", false, "list experiments and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintf(stdout, "%s  %-62s  [%s]\n", e.ID, e.Title, e.Artifact)
		}
		return 0
	}

	var selected []experiments.Experiment
	if fs.NArg() == 0 {
		selected = experiments.All()
	} else {
		for _, id := range fs.Args() {
			e, err := experiments.ByID(id)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			selected = append(selected, e)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	if *parallel < 1 {
		*parallel = 1
	}
	// The flag caps both layers: how many experiments run at once and how
	// wide each experiment's grid/trial fan may go. -parallel 1 is the
	// sequential baseline the speedup and determinism claims compare to.
	defer sim.SetMaxWorkers(sim.SetMaxWorkers(*parallel))

	cfg := experiments.Config{Seed: *seed, Quick: *quick}
	results := make([]chan outcome, len(selected))
	sem := make(chan struct{}, *parallel)
	for i := range selected {
		results[i] = make(chan outcome, 1)
		go func(i int, e experiments.Experiment) {
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			var oc outcome
			func() {
				defer func() {
					if r := recover(); r != nil {
						oc.err = r
					}
				}()
				oc.tables = e.Run(cfg)
			}()
			oc.elapsed = time.Since(start)
			results[i] <- oc
		}(i, selected[i])
	}

	// Consume in declaration order so output is deterministic no matter
	// how the workers interleave.
	var doc []jsonExperiment
	for i, e := range selected {
		oc := <-results[i]
		if oc.err != nil {
			fmt.Fprintf(stderr, "%s failed: %v\n", e.ID, oc.err)
			return 1
		}
		if *jsonOut {
			je := jsonExperiment{
				ID: e.ID, Title: e.Title, Artifact: e.Artifact,
				Seconds: oc.elapsed.Seconds(),
			}
			for _, tbl := range oc.tables {
				je.Tables = append(je.Tables, jsonTable{
					Title: tbl.Title, Columns: tbl.Columns, Rows: tbl.Rows, Notes: tbl.Notes,
				})
			}
			doc = append(doc, je)
		} else {
			fmt.Fprintf(stdout, "### %s — %s (%s)\n\n", e.ID, e.Title, e.Artifact)
			for _, tbl := range oc.tables {
				rendered := tbl.ASCII()
				if *csv {
					rendered = tbl.CSV()
				}
				fmt.Fprintln(stdout, rendered)
			}
			fmt.Fprintln(stdout)
			fmt.Fprintf(stderr, "[%s completed in %v]\n", e.ID, oc.elapsed.Round(time.Millisecond))
		}
		if *outDir != "" {
			var fileBuf strings.Builder
			for _, tbl := range oc.tables {
				if *csv {
					fileBuf.WriteString(tbl.CSV())
				} else {
					fileBuf.WriteString(tbl.ASCII())
				}
				fileBuf.WriteByte('\n')
			}
			ext := ".txt"
			if *csv {
				ext = ".csv"
			}
			path := filepath.Join(*outDir, strings.ToLower(e.ID)+ext)
			if err := os.WriteFile(path, []byte(fileBuf.String()), 0o644); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}
