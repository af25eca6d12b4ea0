package experiments

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"mobirep/internal/sim"
)

// TestRegistryComplete is the inventory in both directions: every row of
// the table is complete and has an "## E.." or "### E.." heading in
// EXPERIMENTS.md, and every such heading has a row.
func TestRegistryComplete(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	headed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^###? (E\d+) `).FindAllStringSubmatch(string(doc), -1) {
		headed[m[1]] = true
	}
	prev := ""
	for _, e := range All() {
		if e.ID <= prev {
			t.Errorf("row %s follows %s: the table is not in ID order", e.ID, prev)
		}
		prev = e.ID
		if e.Title == "" || e.Artifact == "" || len(e.claims) == 0 {
			t.Errorf("row %s is incomplete: %+v", e.ID, e)
		}
		if !headed[e.ID] {
			t.Errorf("row %s has no heading in EXPERIMENTS.md", e.ID)
		}
		delete(headed, e.ID)
	}
	for id := range headed {
		t.Errorf("EXPERIMENTS.md heads %s, which has no row", id)
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("E05")
	if err != nil || e.ID != "E05" {
		t.Fatalf("ByID(E05): %+v, %v", e, err)
	}
	if _, err := ByID("E99"); err == nil {
		t.Fatal("expected error for unknown ID")
	}
}

// TestAllExperimentsRunQuick is the tolerance gate: it runs every row in
// quick mode and fails on any printed theory/measurement pair or verdict
// outside its claim's tolerance, and on an empty or headless table.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are heavy even in quick mode")
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			o := e.run(Config{Seed: 1, Quick: true})
			for _, miss := range o.misses {
				t.Errorf("%s: %s", e.ID, miss)
			}
			if len(o.tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tbl := range o.tables {
				if tbl.Title == "" || len(tbl.Rows) == 0 || !strings.Contains(tbl.ASCII(), tbl.Columns[0]) {
					t.Fatalf("%s produced an untitled, empty or headless table %q", e.ID, tbl.Title)
				}
			}
		})
	}
}

// TestGridMatchesSequential is the runner's determinism proof: every row,
// run with 8 workers, reproduces its fully sequential tables byte for
// byte at the same seed.
func TestGridMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice")
	}
	render := func(e Experiment) string {
		var b strings.Builder
		for _, tbl := range e.Run(Config{Seed: 1994, Quick: true}) {
			b.WriteString(tbl.ASCII())
			b.WriteString(tbl.CSV())
		}
		return b.String()
	}
	defer sim.SetMaxWorkers(sim.SetMaxWorkers(1))
	for _, e := range All() {
		sim.SetMaxWorkers(1)
		seq := render(e)
		sim.SetMaxWorkers(8)
		if par := render(e); seq != par {
			t.Errorf("%s: parallel output differs from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s", e.ID, seq, par)
		}
	}
}

// TestGridRunOrdering pins gridRun's contract: results land in cell order
// regardless of scheduling.
func TestGridRunOrdering(t *testing.T) {
	prev := sim.SetMaxWorkers(8)
	defer sim.SetMaxWorkers(prev)
	got := gridRun(64, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("cell %d = %d, want %d", i, v, i*i)
		}
	}
}

// TestClaimTablesSayYes checks that the verdict columns of the worked-
// number experiments all come out "yes" at a second seed: the paper's
// claims hold on our implementation beyond the seed the tolerance gate
// uses.
func TestClaimTablesSayYes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are heavy even in quick mode")
	}
	e, err := ByID("E10")
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range e.Run(Config{Seed: 2, Quick: true}) {
		for _, row := range tbl.Rows {
			if row[len(row)-1] == "no" {
				t.Errorf("claim failed: %v", row)
			}
		}
	}
}
