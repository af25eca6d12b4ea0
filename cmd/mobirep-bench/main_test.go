package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCapture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestList(t *testing.T) {
	code, out, _ := runCapture(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, id := range []string{"E01", "E05", "E13", "E17"} {
		if !strings.Contains(out, id) {
			t.Fatalf("list missing %s:\n%s", id, out)
		}
	}
}

func TestSingleExperimentQuick(t *testing.T) {
	code, out, errOut := runCapture(t, "-quick", "-seed", "3", "E10")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "### E10") || !strings.Contains(out, "Section 9 worked numbers") {
		t.Fatalf("output: %q", out)
	}
	if strings.Contains(out, "completed in") || !strings.Contains(errOut, "[E10 completed in") {
		t.Fatalf("timing line must go to stderr only: stdout %q, stderr %q", out, errOut)
	}
}

func TestCSVOutput(t *testing.T) {
	code, out, _ := runCapture(t, "-quick", "-csv", "E02")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "omega,") {
		t.Fatalf("csv header missing:\n%s", out)
	}
	if strings.Contains(out, "== Figure") {
		t.Fatal("ASCII table leaked into CSV mode")
	}
}

// TestParallelOutputMatchesSequential: the same seed must produce
// byte-identical stdout whether experiments run one at a time or eight
// abreast.
func TestParallelOutputMatchesSequential(t *testing.T) {
	code, seq, _ := runCapture(t, "-quick", "-seed", "9", "-parallel", "1", "E02", "E03", "E09")
	if code != 0 {
		t.Fatalf("sequential exit %d", code)
	}
	code, par, _ := runCapture(t, "-quick", "-seed", "9", "-parallel", "8", "E02", "E03", "E09")
	if code != 0 {
		t.Fatalf("parallel exit %d", code)
	}
	if seq != par {
		t.Fatalf("parallel output differs from sequential:\n--- -parallel 1 ---\n%s\n--- -parallel 8 ---\n%s", seq, par)
	}
}

// TestJSONOutput checks the -json document: valid JSON, one record per
// experiment in ID order, with timings and table payloads.
func TestJSONOutput(t *testing.T) {
	code, out, errOut := runCapture(t, "-quick", "-json", "-seed", "4", "E10", "E02")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var doc []struct {
		ID       string  `json:"id"`
		Title    string  `json:"title"`
		Artifact string  `json:"artifact"`
		Seconds  float64 `json:"seconds"`
		Tables   []struct {
			Title   string     `json:"title"`
			Columns []string   `json:"columns"`
			Rows    [][]string `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(doc) != 2 || doc[0].ID != "E10" || doc[1].ID != "E02" {
		t.Fatalf("unexpected records: %+v", doc)
	}
	for _, e := range doc {
		if e.Seconds <= 0 || e.Title == "" || e.Artifact == "" || len(e.Tables) == 0 {
			t.Fatalf("incomplete record: %+v", e)
		}
		for _, tbl := range e.Tables {
			if tbl.Title == "" || len(tbl.Columns) == 0 || len(tbl.Rows) == 0 {
				t.Fatalf("incomplete table in %s: %+v", e.ID, tbl)
			}
		}
	}
	if strings.Contains(out, "### ") {
		t.Fatal("ASCII header leaked into JSON mode")
	}
}

func TestUnknownExperiment(t *testing.T) {
	code, _, errOut := runCapture(t, "E99")
	if code != 2 || !strings.Contains(errOut, "unknown experiment") {
		t.Fatalf("code=%d err=%q", code, errOut)
	}
}

func TestBadFlag(t *testing.T) {
	if code, _, _ := runCapture(t, "-nope"); code != 2 {
		t.Fatal("bad flag accepted")
	}
}

func TestOutDirWritesFiles(t *testing.T) {
	dir := t.TempDir()
	code, _, errOut := runCapture(t, "-quick", "-out", dir, "E10")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	data, err := os.ReadFile(filepath.Join(dir, "e10.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "Section 9 worked numbers") {
		t.Fatalf("file content: %q", data)
	}
	// CSV variant.
	code, _, _ = runCapture(t, "-quick", "-csv", "-out", dir, "E10")
	if code != 0 {
		t.Fatalf("csv exit %d", code)
	}
	if _, err := os.Stat(filepath.Join(dir, "e10.csv")); err != nil {
		t.Fatal(err)
	}
}
