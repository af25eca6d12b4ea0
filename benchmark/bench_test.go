package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"mobirep/internal/wire"
)

// testOptions shrinks every workload so a pass fits in a fraction of a
// second; the code paths are the ones the benchmark runs.
func testOptions(t *testing.T, workload string, trace bool) *options {
	o := defaultOptions()
	o.workload, o.trace, o.seed = workload, trace, 7
	o.seconds, o.warmup, o.warmupTr, o.setupReps, o.setupFor = 0.2, 20*time.Millisecond, 20*time.Millisecond, 1, 0
	o.outDir = t.TempDir()
	o.sz = sizes{
		missKeys: 64, missValue: 128,
		swK: 9, swKeys: 128, swValue: 128, swPeriod: 64, swHotKeys: 8, swStrata: 4, swSchedule: 1 << 12,
		fanKeys: 16, fanValue: 1024, fanMemSubs: 4,
		treeStations: 7, treeK: 5, treeKeys: 64, treeValue: 128, treeWritePct: 20, treeHotKeys: 8, treeHotPct: 80, treeHandoff: 50,
		simOps: 1 << 12, simChunk: 1 << 10, simDriftOps: 64,
		probePuts: 100, probeGets: 1 << 10, codecRepeats: 2,
	}
	return &o
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// checkMetrics requires exactly the catalogue's metrics, each finite.
func checkMetrics(t *testing.T, res *outcome, defs []metricDef) {
	t.Helper()
	if len(res.metrics) != len(defs) {
		t.Errorf("%d metrics, catalogue has %d", len(res.metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.name)
		case !finite(v):
			t.Errorf("metric %s = %v", d.name, v)
		case !metricName.MatchString(d.name):
			t.Errorf("metric name %q", d.name)
		}
	}
}

// TestWorkloads runs every workload, untraced and traced, and checks
// what a run must deliver: output verification passed, no operation
// failed, every catalogued metric present and finite, and a trace whose
// spans balance with no unmatched event.
func TestWorkloads(t *testing.T) {
	for _, w := range workloadDefs {
		w := w
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(testOptions(t, w.name, false))
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("timed pass: correct=%v attempted=%d failed=%d notes=%v", res.correct, res.attempted, res.failed, res.notes)
			}
			checkMetrics(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.metrics[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, must be positive on every workload", d.name, res.metrics[d.name])
				}
			}

			o := testOptions(t, w.name, true)
			res, err = runWorkload(o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("traced pass: correct=%v attempted=%d failed=%d notes=%v", res.correct, res.attempted, res.failed, res.notes)
			}
			checkMetrics(t, res, perLayer)

			data, err := os.ReadFile(filepath.Join(o.outDir, w.name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			if err := json.Unmarshal(data, &tf); err != nil {
				t.Fatal(err)
			}
			if tf.UnmatchedEvents != 0 || len(tf.Spans) == 0 {
				t.Errorf("trace: %d unmatched events, %d spans", tf.UnmatchedEvents, len(tf.Spans))
			}
			if err := checkBalanced(&tf); err != nil {
				t.Error(err)
			}
			bypassed(t, w.name, res.metrics, &tf)
		})
	}
}

// bypassed checks the predictions the catalogue makes about layers a
// workload does not touch.
func bypassed(t *testing.T, workload string, m metrics, tf *traceFile) {
	t.Helper()
	zero := func(names ...string) {
		for _, n := range names {
			if m[n] != 0 {
				t.Errorf("%s: %s = %v, want 0 (bypassed)", workload, n, m[n])
			}
		}
	}
	if workload != "tree7_roam" {
		for _, d := range perLayer {
			if strings.HasPrefix(d.name, "tree.") {
				zero(d.name)
			}
		}
	}
	if workload != "pair_write_fanout" {
		zero("db.fsyncs_per_write", "db.put_us_p50")
	}
	switch workload {
	case "pair_read_miss":
		zero("core.sw_apply_ns", "mobile.hit_ratio", "replica.read_hit_ns_p50", "replica.window_flips_per_kop")
		if m["budget.layers_over_e2e"] <= 0 {
			t.Errorf("budget.layers_over_e2e = %v", m["budget.layers_over_e2e"])
		}
	case "sim_replay":
		zero("wire.frames_per_op", "transport.writev_per_op", "replica.data_msgs_per_op")
	}
	// A hit never reaches the transport: its root span has no children.
	hits := map[int]bool{}
	for _, s := range tf.Spans {
		if s.Parent == 0 && s.Name == rootReadHit {
			hits[s.ID] = true
		}
	}
	for _, s := range tf.Spans {
		if hits[s.Parent] {
			t.Errorf("%s: read_hit span has child %s", workload, s.Name)
		}
	}
}

// TestCorruptedReplyIsCaught damages the value of some read responses on
// their way to the client and requires the run to notice.
func TestCorruptedReplyIsCaught(t *testing.T) {
	o := testOptions(t, "pair_read_miss", true)
	n := 0
	o.corrupt = func(frame []byte) {
		// A ReadResp under ST1 ends with its value and an empty window
		// (two zero bytes): flip the value's last byte on every 20th.
		if k, _ := wire.FrameKind(frame); k == wire.KindReadResp && len(frame) > 16 {
			if n++; n%20 == 0 {
				frame[len(frame)-3] ^= 0xff
			}
		}
	}
	res, err := runWorkload(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct || res.failed == 0 {
		t.Fatalf("corrupted replies went unnoticed: correct=%v failed=%d", res.correct, res.failed)
	}
	if len(res.notes) == 0 || !strings.Contains(res.notes[0], "damaged") {
		t.Errorf("notes %v do not name the damaged value", res.notes)
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and params.go
// from drifting apart.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []jsonMetric                 `json:"end_to_end"`
		PerLayer  []jsonMetric                 `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var wl []workloadDef
	for _, w := range doc.Workloads {
		wl = append(wl, workloadDef{w.Name, w.Why})
	}
	if !reflect.DeepEqual(wl, workloadDefs) {
		t.Errorf("workloads differ:\n json %v\n code %v", wl, workloadDefs)
	}
	conv := func(in []jsonMetric, bounded bool) []metricDef {
		var out []metricDef
		for _, m := range in {
			d := metricDef{name: m.Name, unit: m.Unit, better: m.Better}
			if (m.Bound != nil) != bounded {
				t.Errorf("%s: bound present=%v, want %v", m.Name, m.Bound != nil, bounded)
			} else if bounded {
				d.bound = *m.Bound
			}
			out = append(out, d)
		}
		return out
	}
	if got := conv(doc.EndToEnd, true); !reflect.DeepEqual(got, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", got, endToEnd)
	}
	if got := conv(doc.PerLayer, false); !reflect.DeepEqual(got, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", got, perLayer)
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for i := int64(1); i <= 100000; i++ {
		h.add(i * 10)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 1e6
		if got := h.quantile(q); got < want*0.98 || got > want*1.02 {
			t.Errorf("quantile(%v) = %v, want about %v", q, got, want)
		}
	}
	if got := h.mean(); got < 499000 || got > 501100 {
		t.Errorf("mean = %v", got)
	}
	if p, _ := h.tail(); p != 99.99 {
		t.Errorf("tail percentile = %v, want 99.99 with 100000 samples", p)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops []float64) string {
		path := filepath.Join(dir, name)
		var lines []string
		for i, v := range ops {
			rf := resultFile{Workload: "pair_read_miss", Seed: uint64(i), Result: resultLine{Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"ops_per_s": {v, "1/s"}, "op_p50_us": {10, "us"}}}}
			b, err := json.Marshal(rf)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, string(b))
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := write("a", []float64{100, 101, 99, 100, 102, 98})
	for _, c := range []struct {
		name    string
		b       []float64
		worse   bool
		verdict string
	}{
		{"same", []float64{100, 99, 101, 100, 100, 99}, false, "| ok |"},
		{"slower", []float64{70, 71, 69, 70, 72, 68}, true, "| worse |"},
		{"noisy", []float64{60, 140, 90, 120, 70, 130}, false, "| unresolved |"},
	} {
		var out strings.Builder
		worse, err := compareSets(&out, steady, write(c.name, c.b))
		if err != nil {
			t.Fatal(err)
		}
		if worse != c.worse || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: worse=%v, table:\n%s", c.name, worse, out.String())
		}
	}
}
