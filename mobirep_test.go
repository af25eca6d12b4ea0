package mobirep

import (
	"math"
	"testing"
)

// The facade tests double as compileable documentation: each exercises a
// public-API workflow end to end.

func TestFacadePolicyAndCost(t *testing.T) {
	s, err := ParseSchedule("rrwrw")
	if err != nil {
		t.Fatal(err)
	}
	steps := RunPolicy(NewSW(3), s)
	if len(steps) != 5 {
		t.Fatalf("steps = %d", len(steps))
	}
	conn := TotalCost(ConnectionModel(), steps)
	msg := TotalCost(MessageModel(0), steps)
	if conn <= 0 || msg <= 0 {
		t.Fatalf("costs: conn=%v msg=%v", conn, msg)
	}
	for _, mk := range []func() Policy{NewST1, NewST2, func() Policy { return NewT1(3) }, func() Policy { return NewT2(3) }} {
		p := mk()
		p.Apply(Read)
		p.Reset()
	}
}

func TestFacadeSimulationMatchesTheory(t *testing.T) {
	sum := EstimateExpected(func() Policy { return NewSW(5) }, MessageModel(0.5),
		ExpectedOpts{Theta: 0.4, Ops: 30000, Trials: 4, Seed: 3})
	want := ExpSWMsg(5, 0.4, 0.5)
	if math.Abs(sum.Mean()-want) > 0.01 {
		t.Fatalf("measured %v vs theory %v", sum.Mean(), want)
	}
}

func TestFacadeAverage(t *testing.T) {
	sum := EstimateAverage(func() Policy { return NewSW(9) }, ConnectionModel(),
		AverageOpts{Periods: 100, OpsPerPeriod: 200, Trials: 4, Seed: 5})
	if math.Abs(sum.Mean()-AvgSWConn(9)) > 0.02 {
		t.Fatalf("measured %v vs theory %v", sum.Mean(), AvgSWConn(9))
	}
}

func TestFacadeWorkloadsAndOptimal(t *testing.T) {
	rng := NewRNG(7)
	s := BernoulliSchedule(rng, 0.5, 1000)
	if OptimalCost(s) <= 0 {
		t.Fatal("mixed schedule should have positive offline cost")
	}
	opt, states := OptimalTrace(s)
	if len(states) != len(s) || opt != OptimalCost(s) {
		t.Fatal("trace inconsistent with cost")
	}
	timed := PoissonSchedule(rng, 1, 1, 100)
	if len(timed) != 100 {
		t.Fatalf("timed = %d", len(timed))
	}
	drift, thetas := DriftingSchedule(rng, 10, 50)
	if len(drift) != 500 || len(thetas) != 10 {
		t.Fatal("drifting shape wrong")
	}
}

func TestFacadeCompetitive(t *testing.T) {
	res := MeasureRatio(NewSW(3), ConnectionModel(), SWkAdversary(3, 200))
	if res.Ratio < 3.9 || res.Ratio > 4.1 {
		t.Fatalf("ratio = %v, want ~4", res.Ratio)
	}
	res = MeasureRatio(NewSW(1), MessageModel(0.5), SW1Adversary(200))
	if math.Abs(res.Ratio-CompetitiveSW1Msg(0.5)) > 0.05 {
		t.Fatalf("ratio = %v", res.Ratio)
	}
}

func TestFacadeAnalytics(t *testing.T) {
	if BestExpectedMsg(0.9, 0.5) != AlgST1 {
		t.Fatal("high theta should favor ST1")
	}
	if BestExpectedMsg(0.1, 0.5) != AlgST2 {
		t.Fatal("low theta should favor ST2")
	}
	if BestExpectedConn(0.3) != AlgST2 {
		t.Fatal("connection dominance wrong")
	}
	if MinOddKBeatingSW1(0.8) != 7 {
		t.Fatal("threshold wrong")
	}
	if PiK(3, 0.5) != 0.5 {
		t.Fatal("pi_k symmetric point wrong")
	}
	if ExpST1Conn(0.3) != 0.7 || ExpST2Conn(0.3) != 0.3 {
		t.Fatal("static conn formulas wrong")
	}
	if ExpST1Msg(0, 0.5) != 1.5 || ExpST2Msg(0.4) != 0.4 {
		t.Fatal("static msg formulas wrong")
	}
	if ExpSW1Msg(0.5, 0.5) != 0.5 {
		t.Fatal("SW1 formula wrong")
	}
	if ExpSWConn(1, 0.5) != 0.5 {
		t.Fatal("SW conn formula wrong")
	}
	if ExpT1Conn(1, 0.5) != 0.5 || ExpT2Conn(1, 0.5) != 0.5 {
		t.Fatal("T formulas wrong")
	}
	if CompetitiveSWConn(9) != 10 || CompetitiveSWMsg(9, 0) != 10 {
		t.Fatal("competitive factors wrong")
	}
	if AvgSW1Msg(0.5) != (1+2*0.5)/6 || AvgSWMsg(1, 0.5) != AvgSW1Msg(0.5) {
		t.Fatal("avg msg formulas wrong")
	}
}

func TestRecommendWindow(t *testing.T) {
	if k := RecommendWindow(0.10); k != 9 {
		t.Fatalf("RecommendWindow(0.10) = %d, want 9", k)
	}
	if k := RecommendWindow(0.06); k != 15 {
		t.Fatalf("RecommendWindow(0.06) = %d, want 15", k)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad slack should panic")
		}
	}()
	RecommendWindow(0)
}

func TestFacadeDistributed(t *testing.T) {
	a, b := NewMemPair()
	srv, err := NewServer(NewStore(), SWMode(3))
	if err != nil {
		t.Fatal(err)
	}
	serverMeter := srv.Attach(a).Meter()
	cli, err := NewClient(b, SWMode(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Write("price", []byte("101.5")); err != nil {
		t.Fatal(err)
	}
	it, err := cli.Read("price")
	if err != nil {
		t.Fatal(err)
	}
	if string(it.Value) != "101.5" {
		t.Fatalf("read %q", it.Value)
	}
	cli.Read("price") // second read allocates under SW3
	if !cli.HasCopy("price") {
		t.Fatal("no copy after read majority")
	}
	total := serverMeter.Snapshot().Add(cli.Meter().Snapshot())
	if total.DataMsgs != 2 || total.ControlMsgs != 2 {
		t.Fatalf("traffic = %+v", total)
	}
}

func TestFacadeMultiObject(t *testing.T) {
	x, y := NewObjectSet(0), NewObjectSet(1)
	f := FreqTable{
		{Kind: MultiRead, Objects: x}:  9,
		{Kind: MultiWrite, Objects: x}: 1,
		{Kind: MultiRead, Objects: y}:  1,
		{Kind: MultiWrite, Objects: y}: 9,
	}
	alloc, cost := OptimalStaticAllocation(f, 2, MultiConnModel())
	if alloc != x {
		t.Fatalf("alloc = %v", alloc)
	}
	if g, gc := GreedyAllocation(f, 2, MultiConnModel()); g != alloc || gc != cost {
		t.Fatal("greedy disagrees on separable instance")
	}
	if MultiExpectedCost(f, alloc, MultiMsgModel(0.5)) <= 0 {
		t.Fatal("message-model cost should be positive")
	}
	dyn := NewDynamicMulti(2, 50, 10, MultiConnModel())
	for i := 0; i < 200; i++ {
		dyn.Apply(MultiOp{Kind: MultiRead, Objects: x})
	}
	if dyn.Alloc() != x {
		t.Fatalf("dynamic alloc = %v", dyn.Alloc())
	}
}

func TestFacadeParsePolicy(t *testing.T) {
	for _, name := range []string{"ST1", "SW9", "SWe4", "T1:4", "T2:4", "CacheInv", "EWMA:0.3"} {
		f, err := ParsePolicy(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := f().Name(); got != name {
			t.Fatalf("%s built %s", name, got)
		}
	}
	for _, bad := range []string{"none", "T1(4)", "T14", "EWMA(0.3)", "SW4"} {
		if _, err := ParsePolicy(bad); err == nil {
			t.Fatalf("%q parsed", bad)
		}
	}
}

func TestFacadeReplay(t *testing.T) {
	s := BernoulliSchedule(NewRNG(11), 0.4, 2000)
	full := Replay(NewSW(3), ConnectionModel(), s, 0)
	if want := TotalCost(ConnectionModel(), RunPolicy(NewSW(3), s)); full.Ops != len(s) || full.Cost != want {
		t.Fatalf("Replay = %d ops, cost %v; want %d ops, cost %v", full.Ops, full.Cost, len(s), want)
	}
	// Warmup requests still move the window but are not priced.
	warm := Replay(NewSW(3), ConnectionModel(), s, 500)
	if want := TotalCost(ConnectionModel(), RunPolicy(NewSW(3), s)[500:]); warm.Ops != len(s)-500 || warm.Cost != want {
		t.Fatalf("Replay with warmup = %d ops, cost %v; want %d ops, cost %v", warm.Ops, warm.Cost, len(s)-500, want)
	}
}

func TestFacadeBestWindow(t *testing.T) {
	s := BernoulliSchedule(NewRNG(12), 0.3, 5000)
	m := ConnectionModel()
	bestK, bestCost := 0, math.Inf(1)
	for _, k := range []int{1, 3, 5, 9} {
		if c := Replay(NewSW(k), m, s, 0).Cost; c < bestCost {
			bestK, bestCost = k, c
		}
	}
	// Sizes no SWk accepts are skipped, not fatal.
	if k, c := BestWindow([]int{1, 3, 4, 5, 9, 129}, m, s); k != bestK || c != bestCost {
		t.Fatalf("BestWindow = SW%d at %v, want SW%d at %v", k, c, bestK, bestCost)
	}
	if k, c := BestWindow([]int{0, 2}, m, s); k != 0 || !math.IsInf(c, 1) {
		t.Fatalf("BestWindow over no legal size = SW%d at %v", k, c)
	}
}
