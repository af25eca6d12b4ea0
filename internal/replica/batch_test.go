package replica

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mobirep/internal/core"
	"mobirep/internal/db"
	"mobirep/internal/sched"
	"mobirep/internal/transport"
)

func TestReadManyAllMissing(t *testing.T) {
	cli, srv, serverMeter := pair(t, SW(3))
	for i := 0; i < 5; i++ {
		srv.Write(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i)))
	}
	keys := []string{"k0", "k1", "k2", "k3", "k4"}
	items, err := cli.ReadMany(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 5 {
		t.Fatalf("items = %d", len(items))
	}
	for i, it := range items {
		if string(it.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("item %d = %q", i, it.Value)
		}
	}
	// One control message (client) + one data message (server): the whole
	// point of the batch.
	total := serverMeter.Snapshot().Add(cli.Meter().Snapshot())
	if total.ControlMsgs != 1 || total.DataMsgs != 1 {
		t.Fatalf("batch traffic = %+v, want 1 control + 1 data", total)
	}
	if total.Connections != 1 {
		t.Fatalf("connections = %d, want 1", total.Connections)
	}
}

func TestReadManyWindowSemantics(t *testing.T) {
	// Each key inside a batch must behave exactly like a singleton read
	// for allocation purposes: under SW3 (window www) two batched reads of
	// the same key allocate on the second batch.
	cli, srv, _ := pair(t, SW(3))
	srv.Write("x", []byte("v"))
	cli.ReadMany([]string{"x"})
	if cli.HasCopy("x") {
		t.Fatal("allocated after one read")
	}
	cli.ReadMany([]string{"x"})
	if !cli.HasCopy("x") {
		t.Fatal("not allocated after read majority")
	}
	// A cached key in a batch is served locally and slides the window.
	items, err := cli.ReadMany([]string{"x"})
	if err != nil || string(items[0].Value) != "v" {
		t.Fatalf("local batched read: %v %q", err, items[0].Value)
	}
}

func TestReadManyMixedHitMiss(t *testing.T) {
	cli, srv, serverMeter := pair(t, SW(1))
	srv.Write("hot", []byte("h"))
	srv.Write("cold", []byte("c"))
	cli.Read("hot") // allocates under SW1

	before := serverMeter.Snapshot().Add(cli.Meter().Snapshot())
	items, err := cli.ReadMany([]string{"hot", "cold"})
	if err != nil {
		t.Fatal(err)
	}
	if string(items[0].Value) != "h" || string(items[1].Value) != "c" {
		t.Fatalf("items = %q %q", items[0].Value, items[1].Value)
	}
	after := serverMeter.Snapshot().Add(cli.Meter().Snapshot())
	// Only the missing key went remote: one control + one data.
	if after.ControlMsgs-before.ControlMsgs != 1 || after.DataMsgs-before.DataMsgs != 1 {
		t.Fatalf("mixed batch traffic: %+v -> %+v", before, after)
	}
	// The hot key stayed cached and now "cold" is allocated (SW1: last
	// request was a read).
	if !cli.HasCopy("cold") {
		t.Fatal("cold not allocated")
	}
}

func TestReadManyAllCachedIsFree(t *testing.T) {
	cli, srv, serverMeter := pair(t, SW(1))
	srv.Write("a", []byte("1"))
	srv.Write("b", []byte("2"))
	cli.Read("a")
	cli.Read("b")
	before := serverMeter.Snapshot().Add(cli.Meter().Snapshot())
	items, err := cli.ReadMany([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if string(items[0].Value) != "1" || string(items[1].Value) != "2" {
		t.Fatalf("items = %q %q", items[0].Value, items[1].Value)
	}
	if after := serverMeter.Snapshot().Add(cli.Meter().Snapshot()); after != before {
		t.Fatalf("fully cached batch caused traffic: %+v -> %+v", before, after)
	}
}

func TestReadManyDuplicateKeys(t *testing.T) {
	cli, srv, _ := pair(t, SW(3))
	srv.Write("x", []byte("v"))
	items, err := cli.ReadMany([]string{"x", "x", "x"})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if string(it.Value) != "v" {
			t.Fatalf("dup %d = %q", i, it.Value)
		}
	}
}

func TestReadManyEmpty(t *testing.T) {
	cli, _, _ := pair(t, SW(3))
	items, err := cli.ReadMany(nil)
	if err != nil || items != nil {
		t.Fatalf("empty batch: %v %v", items, err)
	}
}

func TestReadManyVsSingletonCost(t *testing.T) {
	// The batch must beat singleton reads by (n-1) message pairs on a
	// cold group.
	const n = 8
	keys := make([]string, n)

	single, srvS, meterS := pair(t, Static1())
	batch, srvB, meterB := pair(t, Static1())
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		srvS.Write(keys[i], []byte("v"))
		srvB.Write(keys[i], []byte("v"))
	}
	for _, k := range keys {
		if _, err := single.Read(k); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := batch.ReadMany(keys); err != nil {
		t.Fatal(err)
	}
	ts := meterS.Snapshot().Add(single.Meter().Snapshot())
	tb := meterB.Snapshot().Add(batch.Meter().Snapshot())
	if ts.ControlMsgs != n || ts.DataMsgs != n {
		t.Fatalf("singleton traffic: %+v", ts)
	}
	if tb.ControlMsgs != 1 || tb.DataMsgs != 1 {
		t.Fatalf("batch traffic: %+v", tb)
	}
	if tb.Connections != 1 || ts.Connections != n {
		t.Fatalf("connections: batch %d vs singles %d", tb.Connections, ts.Connections)
	}
}

func TestReadManyOffline(t *testing.T) {
	cli, srv, _ := pair(t, SW(3))
	srv.Write("x", []byte("v"))
	cli.Disconnect()
	if _, err := cli.ReadMany([]string{"x"}); err != ErrOffline {
		t.Fatalf("offline batch read: %v", err)
	}
}

func TestBatchWindowHandoffMatchesPolicy(t *testing.T) {
	// Interleave batched reads and writes and check allocation still
	// tracks the reference policy (every batched read of a key counts as
	// one read of that key).
	cli, srv, _ := pair(t, SW(5))
	srv.Write("x", []byte("seed"))
	ref := sched.MustParse("rrrrrwwwrrwwwwrr")
	policy := core.NewSW(5)
	for i, op := range ref {
		if op == sched.Read {
			if _, err := cli.ReadMany([]string{"x"}); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := srv.Write("x", []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		policy.Apply(op)
		if cli.HasCopy("x") != policy.HasCopy() {
			t.Fatalf("op %d: protocol %v vs policy %v", i, cli.HasCopy("x"), policy.HasCopy())
		}
	}
}

// TestReadManyLateAnswerWakesNoOtherRead: a joint read that times out
// leaves its request in flight, and the late answer arrives while the
// next joint read waits. It must not complete that read with the first
// one's entries; the next read gets its own answer.
func TestReadManyLateAnswerWakesNoOtherRead(t *testing.T) {
	srv, err := NewServer(db.NewStore(), Static1())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if _, err := srv.Write(k, []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	s2c, c2s, err := transport.NewChaosPair(transport.Config{Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	srv.Attach(s2c)
	cli, err := NewClient(c2s, Static1())
	if err != nil {
		t.Fatal(err)
	}

	cli.Timeout = 10 * time.Millisecond
	if _, err := cli.ReadMany([]string{"a", "b"}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("undelivered joint read: %v, want ErrTimeout", err)
	}
	c2s.Step() // the server answers [a b] late

	cli.Timeout = 10 * time.Second
	type result struct {
		items []db.Item
		err   error
	}
	done := make(chan result, 1)
	go func() {
		items, err := cli.ReadMany([]string{"c"})
		done <- result{items, err}
	}()
	if !c2s.WaitPending(1, 5*time.Second) {
		t.Fatal("second joint read never sent its request")
	}
	s2c.Step() // the late [a b] answer
	c2s.Step() // the [c] request
	s2c.Step() // its answer
	r := <-done
	if r.err != nil || len(r.items) != 1 || r.items[0].Key != "c" || string(r.items[0].Value) != "v-c" {
		t.Fatalf("ReadMany([c]) = %+v, %v; want c's item", r.items, r.err)
	}
}
