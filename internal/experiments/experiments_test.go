package experiments

import (
	"strconv"
	"strings"
	"testing"

	"mobirep/internal/sim"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 22 {
		t.Fatalf("registry has %d experiments, want 22", len(all))
	}
	for i, e := range all {
		want := "E" + pad(i+1)
		if e.ID != want {
			t.Fatalf("experiment %d has ID %q, want %q", i, e.ID, want)
		}
		if e.Title == "" || e.Artifact == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete: %+v", e.ID, e)
		}
	}
}

func pad(i int) string {
	s := strconv.Itoa(i)
	if len(s) < 2 {
		s = "0" + s
	}
	return s
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

// TestAllExperimentsRunQuick executes every experiment in quick mode and
// sanity-checks the output tables. This is the integration test for the
// whole reproduction pipeline.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are heavy even in quick mode")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tables := e.Run(Config{Seed: 1, Quick: true})
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", e.ID)
			}
			for _, tbl := range tables {
				if tbl.Title == "" {
					t.Fatalf("%s produced an untitled table", e.ID)
				}
				if len(tbl.Rows) == 0 {
					t.Fatalf("%s produced empty table %q", e.ID, tbl.Title)
				}
				out := tbl.ASCII()
				if !strings.Contains(out, tbl.Columns[0]) {
					t.Fatalf("%s table %q renders without headers", e.ID, tbl.Title)
				}
			}
		})
	}
}

// TestGridMatchesSequential is the engine's determinism proof at the
// experiment level: running the grid-parallelized experiments with 8
// workers must reproduce the fully sequential tables byte for byte at the
// same seed. It covers both estimator kinds (EXP and AVG sweeps) and the
// competitive-ratio grids.
func TestGridMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several experiments twice")
	}
	render := func(id string) string {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tbl := range e.Run(Config{Seed: 1994, Quick: true}) {
			b.WriteString(tbl.ASCII())
			b.WriteString(tbl.CSV())
		}
		return b.String()
	}
	for _, id := range []string{"E01", "E03", "E04", "E06", "E07", "E08"} {
		prev := sim.SetMaxWorkers(1)
		seq := render(id)
		sim.SetMaxWorkers(8)
		par := render(id)
		sim.SetMaxWorkers(prev)
		if seq != par {
			t.Fatalf("%s: parallel output differs from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s", id, seq, par)
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
// number experiments all come out "yes": the paper's claims hold on our
// implementation.
func TestClaimTablesSayYes(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are heavy even in quick mode")
	}
	e, err := ByID("E10")
	if err != nil {
		t.Fatal(err)
	}
	tables := e.Run(Config{Seed: 2, Quick: true})
	for _, tbl := range tables {
		for _, row := range tbl.Rows {
			last := row[len(row)-1]
			if last == "no" {
				t.Errorf("claim failed: %v", row)
			}
		}
	}
}
