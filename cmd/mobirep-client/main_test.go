package main

import (
	"testing"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/replica"
	"mobirep/internal/transport"
)

func TestParseMode(t *testing.T) {
	cases := map[string]string{
		"ST1": "ST1", "ST2": "ST2", "SW1": "SW1", "SW9": "SW9",
	}
	for in, want := range cases {
		m, err := parseMode(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if m.String() != want {
			t.Fatalf("%q parsed to %q", in, m.String())
		}
	}
	// SW127 is the largest legal window; SW129 is past core.MaxWindow and
	// must fail here, at flag parsing, not at the first key touched.
	if m, err := parseMode("SW127"); err != nil || m.String() != "SW127" {
		t.Fatalf("SW127: %v, %v", m, err)
	}
	for _, bad := range []string{"", "SW4", "SW0", "sw9", "SW9x", "XX", "SW129"} {
		if _, err := parseMode(bad); err == nil {
			t.Fatalf("%q: expected error", bad)
		}
	}
}

// TestChaosWrappedDial mirrors main's -chaos wiring: dial a real TCP
// server, wrap the link in the auto-mode injector, and check reads still
// complete and the fault counters move. Duplication only, so no read can
// be lost.
func TestChaosWrappedDial(t *testing.T) {
	srv, err := replica.NewServer(db.NewStore(), replica.SW(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Write("x", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			link, err := ln.Accept()
			if err != nil {
				return
			}
			sess := srv.Attach(link)
			link.Start(func(error) { sess.Detach() })
		}
	}()

	cfg, err := transport.ParseChaosSpec("seed=5,dup=1.0")
	if err != nil {
		t.Fatal(err)
	}
	tcp, err := transport.Dial(ln.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	chaos, err := transport.NewChaos(tcp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer chaos.Close()
	cli, err := replica.NewClient(chaos, replica.SW(3))
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
	if st := chaos.Stats(); st.Duplicated == 0 {
		t.Fatalf("chaos injector never fired: %+v", st)
	}
}
