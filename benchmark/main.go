// Command benchmark is the repository's benchmark: five named workloads,
// four of them over loopback TCP against an in-process server, each run
// either as a timed pass (end-to-end metrics) or as a traced pass
// (per-layer metrics and a span file). See README.md in this directory.
//
//	bash benchmark/run.sh --workload pair_read_miss --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh                      # every workload, both passes
//	bash benchmark/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	o := defaultOptions()
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", o.seed, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", o.seconds, "length of the measured pass")
	trace := flag.Int("trace", -1, "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics; -1: both")
	set := flag.String("set", "", "also append each run's result, one JSON object a line, to this file (input of -compare)")
	compare := flag.Bool("compare", false, "compare two -set files given as arguments and exit 1 if a metric got worse")
	flag.StringVar(&o.outDir, "out", o.outDir, "directory for result and trace files")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.jsonl b.jsonl")
			os.Exit(2)
		}
		worse, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "unexpected arguments:", flag.Args())
		os.Exit(2)
	}
	if o.seconds <= 0 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "-seconds must be positive and -trace one of -1, 0, 1")
		os.Exit(2)
	}

	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames()
	}
	passes := []bool{*trace == 1}
	if *trace == -1 {
		passes = []bool{false, true}
	}
	allCorrect := true
	for _, name := range names {
		for _, traced := range passes {
			ro := o
			ro.workload, ro.trace = name, traced
			res, err := runWorkload(&ro)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
			if err := report(&ro, res, *set); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
			allCorrect = allCorrect && res.correct
		}
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.name
	}
	return names
}

// runWorkload runs one pass of one workload.
func runWorkload(o *options) (*outcome, error) {
	switch o.workload {
	case readMissWorkload.name:
		return runNet(readMissWorkload, o)
	case swDriftWorkload.name:
		return runNet(swDriftWorkload, o)
	case writeFanoutWorkload.name:
		return runNet(writeFanoutWorkload, o)
	case treeRoamWorkload.name:
		return runNet(treeRoamWorkload, o)
	case simReplayName:
		return runSimReplay(o)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
}

// metricValue is one metric in the printed result.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the object printed as the last line of a run, with
// exactly these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is what a run writes under -out and appends to -set: the
// result line plus everything needed to read it later.
type resultFile struct {
	Workload string         `json:"workload"`
	Why      string         `json:"why"`
	Trace    int            `json:"trace"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Host     hostBlock      `json:"host"`
	Params   map[string]any `json:"params"`
	Result   resultLine     `json:"result"`
	Notes    []string       `json:"notes,omitempty"`
	Detail   map[string]any `json:"detail,omitempty"`
}

// report prints every metric by name with its unit, writes the result
// file, and prints the result line last.
func report(o *options, res *outcome, set string) error {
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	line := resultLine{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	fmt.Printf("# %s seed=%d seconds=%g trace=%d\n", o.workload, o.seed, o.seconds, b2i(o.trace))
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || !finite(v) {
			return fmt.Errorf("%s: metric %s missing or not finite (%v)", o.workload, d.name, v)
		}
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("%-36s %16.6g %s\n", d.name, v, d.unit)
	}
	for _, n := range res.notes {
		fmt.Println("! " + n)
	}

	why := ""
	for _, w := range workloadDefs {
		if w.name == o.workload {
			why = w.why
		}
	}
	rf := resultFile{
		Workload: o.workload, Why: why, Trace: b2i(o.trace), Seed: o.seed, Seconds: o.seconds,
		Host: host(), Params: params(o), Result: line, Notes: res.notes, Detail: res.detail,
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return fmt.Errorf("create %s: %w", o.outDir, err)
	}
	pretty, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s.trace%d.json", o.workload, b2i(o.trace)))
	if err := os.WriteFile(path, append(pretty, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	if set != "" {
		compact, err := json.Marshal(rf)
		if err != nil {
			return fmt.Errorf("encode result: %w", err)
		}
		f, err := os.OpenFile(set, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("open set file: %w", err)
		}
		_, werr := f.Write(append(compact, '\n'))
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("append to set file: %w", werr)
		}
	}

	last, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encode result line: %w", err)
	}
	fmt.Println(string(last))
	return nil
}

// hostBlock says where the numbers were taken.
type hostBlock struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Network    string `json:"network"`
}

func host() hostBlock {
	return hostBlock{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		Go:         runtime.Version(),
		Commit:     commit(),
		Network:    "loopback, in-process server",
	}
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func commit() string {
	head := firstLine(".git/HEAD")
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if sha := firstLine(filepath.Join(".git", ref)); sha != "unknown" {
		return sha
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// params lists the load shape and every size that shaped the run.
func params(o *options) map[string]any {
	sz := o.sz
	p := map[string]any{
		"connections": clientConns, "shards": serverShards, "coalescing": "both ends",
		"read_timeout": readTimeout.String(), "outbox_bytes": outboxBytes, "write_timeout": writeTimeout.String(),
		"warmup": o.warmup.String(), "warmup_traced": o.warmupTr.String(), "setup_reps": o.setupReps,
		"omega": omega, "log_device": "in-memory db.FS (memfs.go); every fsync call made and counted, none reaches a disk",
	}
	if o.workload != simReplayName {
		p["gomaxprocs"], p["cpus"] = 1, "one: every thread pinned to the highest CPU the process may use (detail.pinned_cpu)"
	}
	switch o.workload {
	case readMissWorkload.name:
		p["mode"], p["keys"], p["value_bytes"] = "ST1", sz.missKeys, sz.missValue
	case swDriftWorkload.name:
		p["mode"], p["keys_per_connection"], p["value_bytes"] = fmt.Sprintf("SW%d", sz.swK), sz.swKeys, sz.swValue
		p["period_ops"], p["hot_keys_per_period"], p["schedule_ops"] = sz.swPeriod, sz.swHotKeys, sz.swSchedule
		p["theta_strata"] = sz.swStrata
	case writeFanoutWorkload.name:
		p["mode"], p["keys"], p["value_bytes"] = "ST2", sz.fanKeys, sz.fanValue
		p["mem_subscribers"], p["sync"] = sz.fanMemSubs, "group, interval 0"
	case treeRoamWorkload.name:
		p["mode"], p["placement"] = fmt.Sprintf("SW%d", sz.treeK), fmt.Sprintf("SW%d", sz.treeK)
		p["stations"], p["keys"], p["value_bytes"] = sz.treeStations, sz.treeKeys, sz.treeValue
		p["write_pct"], p["handoff_every_ops"] = sz.treeWritePct, sz.treeHandoff
	case simReplayName:
		p["schedule_ops"], p["task_ops"], p["drift_period_ops"] = sz.simOps, sz.simChunk, sz.simDriftOps
		p["workers"] = runtime.NumCPU()
	}
	return p
}
