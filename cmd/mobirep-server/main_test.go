package main

import (
	"testing"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/replica"
	"mobirep/internal/transport"
)

// TestParseMode pins the grammar of this binary's -mode flag, which main
// hands to replica.ParseMode: every mode the paper names parses to itself,
// and a malformed or out-of-range mode fails at flag parsing.
func TestParseMode(t *testing.T) {
	cases := map[string]string{
		"ST1": "ST1", "ST2": "ST2", "SW1": "SW1", "SW9": "SW9",
	}
	for in, want := range cases {
		m, err := replica.ParseMode(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if m.String() != want {
			t.Fatalf("%q parsed to %q", in, m.String())
		}
	}
	// SW127 is the largest legal window; SW129 is past core.MaxWindow and
	// must fail here, at flag parsing, not at the first key touched.
	if m, err := replica.ParseMode("SW127"); err != nil || m.String() != "SW127" {
		t.Fatalf("SW127: %v, %v", m, err)
	}
	for _, bad := range []string{"", "SW4", "SW0", "sw9", "SW9x", "XX", "SW129"} {
		if _, err := replica.ParseMode(bad); err == nil {
			t.Fatalf("%q: expected error", bad)
		}
	}
}

// TestChaosSpecAccepted runs the accept loop with the -chaos injector
// enabled and checks a real TCP client still completes reads. The spec
// duplicates aggressively but never loses frames, so the run is flaky-free:
// the protocol must simply survive the duplicates.
func TestChaosSpecAccepted(t *testing.T) {
	cfg, err := transport.ParseChaosSpec("seed=3,dup=1.0")
	if err != nil {
		t.Fatal(err)
	}
	store := db.NewStore()
	srv, err := replica.NewServer(store, replica.SW(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Write("x", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	addr, err := listenAndServe(srv, "127.0.0.1:0", cfg, 1<<20, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	link, err := transport.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	cli, err := replica.NewClient(link, replica.SW(3))
	if err != nil {
		t.Fatal(err)
	}
	cli.Timeout = 5 * time.Second
	for i := 0; i < 5; i++ {
		it, err := cli.Read("x")
		if err != nil {
			t.Fatalf("read %d under chaos: %v", i, err)
		}
		if string(it.Value) != "v1" {
			t.Fatalf("read %d returned %q", i, it.Value)
		}
	}
}

func TestChaosSpecRejected(t *testing.T) {
	if _, err := transport.ParseChaosSpec("drop=1.5"); err == nil {
		t.Fatal("out-of-range drop accepted")
	}
	if _, err := transport.ParseChaosSpec("bogus"); err == nil {
		t.Fatal("malformed spec accepted")
	}
}
