package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareSets reads two -set files (one resultFile a line), groups their
// runs by workload and pass, and prints for every metric the change from
// a's median to b's. An end-to-end metric is judged against the bound
// fixed in BENCHMARK.json (the endToEnd table here; the self-test keeps
// the two equal):
//
//	ok          b's median is not worse than a's by more than the bound
//	worse       it is
//	unresolved  either side's own runs spread wider than the bound
//	            (interquartile range over median), unless every run of
//	            b reads better than every run of a
//
// Per-layer metrics carry no bound; their change is printed for the
// reader and never judged. It reports whether any metric was worse.
func compareSets(w io.Writer, a, b string) (worse bool, err error) {
	setA, err := readSet(a)
	if err != nil {
		return false, err
	}
	setB, err := readSet(b)
	if err != nil {
		return false, err
	}
	bounds := map[string]metricDef{}
	for _, d := range endToEnd {
		bounds[d.name] = d
	}

	fmt.Fprintf(w, "| workload | metric | unit | a median | b median | change | bound | a spread | b spread | verdict |\n")
	fmt.Fprintf(w, "|---|---|---|---:|---:|---:|---:|---:|---:|---|\n")
	for _, g := range groupKeys(setA, setB) {
		ra, rb := setA[g], setB[g]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "| %s | (runs) | | %d | %d | | | | | only one side has runs |\n", g.workload, len(ra), len(rb))
			continue
		}
		for _, name := range metricNames(ra, rb) {
			va, unit := values(ra, name)
			vb, _ := values(rb, name)
			ma, mb := median(va), median(vb)
			change := math.NaN()
			if ma != 0 {
				change = (mb - ma) / math.Abs(ma)
			}
			sa, sb := spread(va), spread(vb)
			verdict, boundText := "", ""
			if d, bounded := bounds[name]; bounded {
				boundText = fmt.Sprintf("%.0f%%", 100*d.bound)
				worseBy := change
				if d.better == "higher" {
					worseBy = -change
				}
				switch {
				case (sa > d.bound || sb > d.bound) && !allBetter(va, vb, d.better):
					verdict = "unresolved"
				case worseBy > d.bound:
					verdict = "worse"
					worse = true
				default:
					verdict = "ok"
				}
			}
			fmt.Fprintf(w, "| %s | %s | %s | %.6g | %.6g | %s | %s | %s | %s | %s |\n",
				g.workload, name, unit, ma, mb, pct(change), boundText,
				fmt.Sprintf("%.1f%%", 100*sa), fmt.Sprintf("%.1f%%", 100*sb), verdict)
		}
	}
	return worse, nil
}

type groupKey struct {
	workload string
	trace    int
}

func readSet(path string) (map[groupKey][]resultFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := map[groupKey][]resultFile{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r resultFile
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		k := groupKey{r.Workload, r.Trace}
		set[k] = append(set[k], r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// groupKeys lists the groups of either set in catalogue order, the timed
// pass of a workload before its traced pass.
func groupKeys(a, b map[groupKey][]resultFile) []groupKey {
	var keys []groupKey
	for _, w := range workloadDefs {
		for trace := 0; trace <= 1; trace++ {
			k := groupKey{w.name, trace}
			if len(a[k])+len(b[k]) > 0 {
				keys = append(keys, k)
			}
		}
	}
	return keys
}

// metricNames lists the metrics of the runs in catalogue order.
func metricNames(a, b []resultFile) []string {
	have := map[string]bool{}
	for _, r := range append(append([]resultFile(nil), a...), b...) {
		for name := range r.Result.Metrics {
			have[name] = true
		}
	}
	var names []string
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if have[d.name] {
			names = append(names, d.name)
			delete(have, d.name)
		}
	}
	var rest []string
	for name := range have {
		rest = append(rest, name)
	}
	sort.Strings(rest)
	return append(names, rest...)
}

func values(runs []resultFile, name string) (v []float64, unit string) {
	for _, r := range runs {
		if m, ok := r.Result.Metrics[name]; ok {
			v = append(v, m.Value)
			unit = m.Unit
		}
	}
	return v, unit
}

// spread is the distance between the first and third quartile as a share
// of the median, the quartiles taken as Python's statistics.quantiles
// (n=4, exclusive) takes them. Fewer than four values have no spread.
func spread(v []float64) float64 {
	if len(v) < 4 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / math.Abs(med)
}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b []float64, better string) bool {
	minA, maxA := math.Inf(1), math.Inf(-1)
	for _, x := range a {
		minA, maxA = math.Min(minA, x), math.Max(maxA, x)
	}
	for _, x := range b {
		if better == "lower" && x >= minA || better == "higher" && x <= maxA {
			return false
		}
	}
	return len(b) > 0
}

func pct(x float64) string {
	if !finite(x) {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*x)
}
