package replica

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mobirep/internal/core"
	"mobirep/internal/cost"
	"mobirep/internal/db"
	"mobirep/internal/sched"
	"mobirep/internal/sim"
	"mobirep/internal/stats"
	"mobirep/internal/transport"
	"mobirep/internal/workload"
)

// pair builds a connected client/server over the in-memory transport.
func pair(t *testing.T, mode Mode) (*Client, *Server, *Meter) {
	t.Helper()
	a, b := transport.NewMemPair()
	srv, err := NewServer(db.NewStore(), mode)
	if err != nil {
		t.Fatal(err)
	}
	serverMeter := srv.Attach(a).Meter()
	cli, err := NewClient(b, mode)
	if err != nil {
		t.Fatal(err)
	}
	return cli, srv, serverMeter
}

func TestModeValidation(t *testing.T) {
	if _, err := NewServer(db.NewStore(), SW(4)); err == nil {
		t.Fatal("even window accepted")
	}
	a, _ := transport.NewMemPair()
	if _, err := NewClient(a, SW(0)); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := NewServer(db.NewStore(), Mode{Kind: ModeKind(9)}); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

// TestModeWindowBound table-tests the odd sizes around the window's word
// boundaries and its bound: everything up to core.MaxWindow validates,
// and the first odd size past it is a Validate error naming the bound —
// so a flag parser rejects it — not a panic at the first key touched.
func TestModeWindowBound(t *testing.T) {
	for _, k := range []int{1, 63, 65, 127} {
		if err := SW(k).Validate(); err != nil {
			t.Errorf("SW%d rejected: %v", k, err)
		}
	}
	for _, k := range []int{64, 128} {
		if err := SW(k).Validate(); err == nil {
			t.Errorf("even SW%d accepted", k)
		}
	}
	err := SW(129).Validate()
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("outside [1, %d]", core.MaxWindow)) {
		t.Errorf("SW129: error %v does not name the bound", err)
	}
	if _, err := NewServer(db.NewStore(), SW(129)); err == nil {
		t.Error("NewServer accepted SW129")
	}
}

func TestModeString(t *testing.T) {
	if SW(5).String() != "SW5" || Static1().String() != "ST1" || Static2().String() != "ST2" {
		t.Fatal("mode names wrong")
	}
}

// TestParseMode pins the one mode grammar every binary's -mode flag uses:
// ParseMode inverts String on every legal mode and rejects everything
// else, each legal-looking SW size by its Validate error.
func TestParseMode(t *testing.T) {
	modes := []Mode{Static1(), Static2()}
	for k := 1; k < core.MaxWindow; k += 2 {
		modes = append(modes, SW(k))
	}
	for _, m := range modes {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, bad := range []string{"SW0", "SW2", "SW4", "SW129", "SW5x", "SW9x", "sw5", "sw9", "", "T1:2", "SW05", "SW+5", "SW-1", "ST3", "XX", "SW"} {
		if m, err := ParseMode(bad); err == nil {
			t.Fatalf("ParseMode(%q) = %v, want an error", bad, m)
		}
	}
}

func TestSW3AllocationLifecycle(t *testing.T) {
	cli, srv, _ := pair(t, SW(3))
	srv.Write("x", []byte("v1"))

	// First read: remote, no allocation yet (window w w r: write majority).
	it, err := cli.Read("x")
	if err != nil {
		t.Fatal(err)
	}
	if string(it.Value) != "v1" || it.Version != 1 {
		t.Fatalf("read 1: %+v", it)
	}
	if cli.HasCopy("x") {
		t.Fatal("copy allocated too early")
	}
	// Second read: window w r r -> read majority -> allocate.
	if _, err := cli.Read("x"); err != nil {
		t.Fatal(err)
	}
	if !cli.HasCopy("x") {
		t.Fatal("copy not allocated after read majority")
	}
	// Local read: window r r r.
	if _, err := cli.Read("x"); err != nil {
		t.Fatal(err)
	}
	// One write: propagated, window r r w, copy stays.
	srv.Write("x", []byte("v2"))
	if !cli.HasCopy("x") {
		t.Fatal("copy dropped on first write")
	}
	if got, _ := cli.Cache().Peek("x"); string(got.Value) != "v2" || got.Version != 2 {
		t.Fatalf("cache after propagation: %+v", got)
	}
	// Second write: window r w w -> write majority -> deallocate.
	srv.Write("x", []byte("v3"))
	if cli.HasCopy("x") {
		t.Fatal("copy not deallocated after write majority")
	}
	// Third write: SC in charge, free.
	srv.Write("x", []byte("v4"))
	// Remote read returns the freshest value.
	it, err = cli.Read("x")
	if err != nil {
		t.Fatal(err)
	}
	if string(it.Value) != "v4" || it.Version != 4 {
		t.Fatalf("read after dealloc: %+v", it)
	}
}

func TestSW1DeleteRequestOptimization(t *testing.T) {
	cli, srv, serverMeter := pair(t, SW(1))
	srv.Write("x", []byte("v1"))
	cli.Read("x") // allocates (window [r])
	if !cli.HasCopy("x") {
		t.Fatal("no copy after read")
	}
	before := serverMeter.Snapshot()
	srv.Write("x", []byte("v2"))
	after := serverMeter.Snapshot()
	if cli.HasCopy("x") {
		t.Fatal("copy survived a write under SW1")
	}
	// The write must have cost exactly one control message, no data.
	if after.DataMsgs != before.DataMsgs {
		t.Fatalf("SW1 write propagated data: %+v -> %+v", before, after)
	}
	if after.ControlMsgs != before.ControlMsgs+1 {
		t.Fatalf("SW1 write control messages: %+v -> %+v", before, after)
	}
	// The stale cached value must be gone; a fresh read sees v2.
	it, err := cli.Read("x")
	if err != nil {
		t.Fatal(err)
	}
	if string(it.Value) != "v2" {
		t.Fatalf("read after delete-request: %q", it.Value)
	}
}

func TestStatic1NeverAllocates(t *testing.T) {
	cli, srv, serverMeter := pair(t, Static1())
	srv.Write("x", []byte("v1"))
	for i := 0; i < 5; i++ {
		it, err := cli.Read("x")
		if err != nil {
			t.Fatal(err)
		}
		if string(it.Value) != "v1" {
			t.Fatalf("read %d: %q", i, it.Value)
		}
		if cli.HasCopy("x") {
			t.Fatal("ST1 allocated a copy")
		}
	}
	before := serverMeter.Snapshot()
	srv.Write("x", []byte("v2"))
	if after := serverMeter.Snapshot(); after != before {
		t.Fatalf("ST1 write caused traffic: %+v -> %+v", before, after)
	}
	// 5 remote reads: 5 data responses from the server.
	if serverMeter.Snapshot().DataMsgs != 5 {
		t.Fatalf("server data messages = %d", serverMeter.Snapshot().DataMsgs)
	}
}

func TestStatic2AlwaysPropagates(t *testing.T) {
	cli, srv, serverMeter := pair(t, Static2())
	srv.Write("x", []byte("v1"))
	cli.Read("x") // allocates permanently
	if !cli.HasCopy("x") {
		t.Fatal("ST2 did not allocate on first read")
	}
	for i := 2; i <= 6; i++ {
		srv.Write("x", []byte(fmt.Sprintf("v%d", i)))
		if !cli.HasCopy("x") {
			t.Fatal("ST2 lost its copy")
		}
		got, _ := cli.Cache().Peek("x")
		if got.Version != uint64(i) {
			t.Fatalf("cache version %d after write %d", got.Version, i)
		}
	}
	// All subsequent reads are local.
	misses := cli.Cache().Stats().Misses
	for i := 0; i < 10; i++ {
		cli.Read("x")
	}
	if cli.Cache().Stats().Misses != misses {
		t.Fatal("ST2 read went remote")
	}
	// 5 propagations + 1 initial read response.
	if serverMeter.Snapshot().DataMsgs != 6 {
		t.Fatalf("server data messages = %d", serverMeter.Snapshot().DataMsgs)
	}
}

func TestWindowHandoffPreservesHistory(t *testing.T) {
	// After deallocation the SC must continue from the MC's window, not a
	// fresh one: with k=5 and window r r r w w at handoff, a single read
	// (r r w w r... -> reads 3) must NOT allocate if the majority isn't
	// reached, etc. We verify protocol allocation matches the pure policy
	// on the same operation sequence, which is only possible if handoff
	// carries the window.
	seq := sched.MustParse("rrrrrwwrwwrrwrrrwwwwrrrrr")
	cli, srv, _ := pair(t, SW(5))
	srv.Write("x", []byte("seed"))

	policy := core.NewSW(5)
	for i, op := range seq {
		if op == sched.Read {
			if _, err := cli.Read("x"); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := srv.Write("x", []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		st := policy.Apply(op)
		if cli.HasCopy("x") != st.HasCopy {
			t.Fatalf("op %d (%v): protocol copy=%v, policy copy=%v",
				i, op, cli.HasCopy("x"), st.HasCopy)
		}
	}
}

// TestProtocolMatchesSimulatorExactly is the E13 property: on an identical
// request sequence, the distributed protocol's combined meters equal the
// simulator's ledger message for message, for every SW mode and both cost
// models.
func TestProtocolMatchesSimulatorExactly(t *testing.T) {
	for _, k := range []int{1, 3, 5, 9} {
		for _, theta := range []float64{0.2, 0.5, 0.8} {
			rng := stats.NewRNG(uint64(100*k) + uint64(theta*10))
			seq := workload.Bernoulli(rng, theta, 2000)

			cli, srv, serverMeter := pair(t, SW(k))
			srv.Write("x", []byte("seed"))
			for _, op := range seq {
				if op == sched.Read {
					if _, err := cli.Read("x"); err != nil {
						t.Fatal(err)
					}
				} else {
					if _, err := srv.Write("x", []byte("v")); err != nil {
						t.Fatal(err)
					}
				}
			}
			combined := serverMeter.Snapshot().Add(cli.Meter().Snapshot())

			res := sim.Replay(core.NewSW(k), cost.NewMessage(0.5), seq, 0)
			if combined.DataMsgs != res.Ledger.DataMessages {
				t.Fatalf("k=%d theta=%v: data %d vs sim %d",
					k, theta, combined.DataMsgs, res.Ledger.DataMessages)
			}
			if combined.ControlMsgs != res.Ledger.ControlMessages {
				t.Fatalf("k=%d theta=%v: control %d vs sim %d",
					k, theta, combined.ControlMsgs, res.Ledger.ControlMessages)
			}
			if combined.Connections != res.Ledger.Connections {
				t.Fatalf("k=%d theta=%v: connections %d vs sim %d",
					k, theta, combined.Connections, res.Ledger.Connections)
			}
			for _, omega := range []float64{0, 0.3, 1} {
				wantCost := sim.Replay(core.NewSW(k), cost.NewMessage(omega), seq, 0).Cost
				if got := combined.MessageCost(omega); math.Abs(got-wantCost) > 1e-6 {
					t.Fatalf("k=%d theta=%v omega=%v: cost %v vs sim %v",
						k, theta, omega, got, wantCost)
				}
			}
			wantConn := sim.Replay(core.NewSW(k), cost.NewConnection(), seq, 0).Cost
			if got := combined.ConnectionCost(); got != wantConn {
				t.Fatalf("k=%d theta=%v: connections cost %v vs sim %v",
					k, theta, got, wantConn)
			}
		}
	}
}

func TestMultipleKeysIndependent(t *testing.T) {
	cli, srv, _ := pair(t, SW(3))
	srv.Write("x", []byte("x1"))
	srv.Write("y", []byte("y1"))
	// Allocate x only.
	cli.Read("x")
	cli.Read("x")
	if !cli.HasCopy("x") || cli.HasCopy("y") {
		t.Fatalf("copies: x=%v y=%v", cli.HasCopy("x"), cli.HasCopy("y"))
	}
	// Writes to y are free; writes to x propagate.
	srv.Write("y", []byte("y2"))
	if got, _ := cli.Read("y"); string(got.Value) != "y2" {
		t.Fatalf("y = %q", got.Value)
	}
}

func TestReadUnknownKey(t *testing.T) {
	cli, _, _ := pair(t, SW(3))
	it, err := cli.Read("missing")
	if err != nil {
		t.Fatal(err)
	}
	if it.Version != 0 || it.Value != nil {
		t.Fatalf("missing key read: %+v", it)
	}
}

func TestBytesMetered(t *testing.T) {
	cli, srv, serverMeter := pair(t, SW(3))
	srv.Write("x", make([]byte, 1000))
	cli.Read("x")
	total := serverMeter.Snapshot().Add(cli.Meter().Snapshot())
	if total.Bytes < 1000 {
		t.Fatalf("bytes = %d, expected at least the 1000-byte payload", total.Bytes)
	}
}
