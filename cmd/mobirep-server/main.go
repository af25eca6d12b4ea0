// Command mobirep-server runs a stationary computer (SC) node: it owns the
// online database, accepts mobile clients over TCP, and optionally issues
// Poisson-distributed writes to a key so a client on the other end can
// observe the full allocation protocol.
//
// Example:
//
//	mobirep-server -listen 127.0.0.1:7070 -mode SW9 -key x -write-rate 5
//
// With -parent the process runs as a relay support station instead: an
// in-memory mirror served to its own clients (mobile computers or deeper
// relays), read-through and write propagation to the parent server over
// TCP, with the parent link supervised (redial + warm resync) like a
// mobile client's. Chaining relays builds the replica tree one process
// per station:
//
//	mobirep-server -listen :7070 -mode ST2 -log root.log       # the root
//	mobirep-server -listen :7071 -mode ST2 -parent :7070 \
//	    -placement T1:2                                        # a relay
//	mobirep-client -server 127.0.0.1:7071 -mode ST2 -key x
package main

import (
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/obs"
	"mobirep/internal/replica"
	"mobirep/internal/stats"
	"mobirep/internal/transport"
	"mobirep/internal/tree"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7070", "TCP listen address")
	modeName := flag.String("mode", "SW9", "allocation mode: ST1, ST2 or SWk")
	shards := flag.Int("shards", 0, "session shard count (power of two, 0 = one per CPU)")
	key := flag.String("key", "x", "key to auto-write")
	writeRate := flag.Float64("write-rate", 0, "Poisson write rate per second (0 = no auto writes)")
	logPath := flag.String("log", "", "append-only persistence log (empty = in-memory)")
	syncPolicy := flag.String("sync", "group",
		"durability policy for -log: always (fsync per write), group (group commit, default) or never (fsync only at shutdown)")
	groupInterval := flag.Duration("group-commit-interval", 0,
		"upper bound on how long a group-commit leader waits to grow a batch (0 = natural batching); only meaningful with -sync=group")
	seed := flag.Uint64("seed", 1, "random seed for the write process")
	statsEvery := flag.Duration("stats-every", 10*time.Second, "meter print interval")
	chaosSpec := flag.String("chaos", "",
		"fault injection on client links, e.g. seed=7,drop=0.05,dup=0.02,reorder=0.1,delay=0.2,maxdelay=50ms,crash=0.001,part=0.01,partlen=20")
	sessionTTL := flag.Duration("session-ttl", 0,
		"detach sessions silent for this long (half-open links); 0 disables the reaper; clients must heartbeat well under it")
	debugAddr := flag.String("debug-addr", "",
		"HTTP listen address for /metrics, /healthz, /events and /debug/pprof (empty = disabled; use 127.0.0.1:0 for an ephemeral port)")
	maxSessions := flag.Int("max-sessions", 0,
		"admission cap on concurrently attached sessions; attaches past it are refused with a Busy frame (0 = unlimited)")
	attachRate := flag.Float64("attach-rate", 0,
		"admission cap on attaches per second server-wide, smoothed by one token bucket (0 = unlimited)")
	retryAfter := flag.Duration("retry-after", time.Second,
		"retry-after hint carried in Busy refusals and shed evictions")
	outboxBytes := flag.Int("outbox-bytes", 1<<20,
		"per-client outbox byte bound; a slow consumer whose queue would exceed it is disconnected (0 = unbounded)")
	writeTimeout := flag.Duration("write-timeout", 10*time.Second,
		"per-client write deadline; a peer that stops reading is disconnected when a write stalls this long (0 = none)")
	memSoftLimit := flag.Int64("mem-soft-limit", 0,
		"soft watermark on accounted session+outbox bytes; while over it, idle-longest sessions are shed with Busy frames (0 = disabled)")
	shedEvery := flag.Duration("shed-every", time.Second, "mem-soft-limit enforcement interval")
	parent := flag.String("parent", "",
		"parent server address; set to run as a relay support station (in-memory mirror, read-through and propagation to the parent) instead of the root")
	placementSpec := flag.String("placement", "none",
		"relay placement policy for the mirror: none, SWk, T1:m or T2:m (only with -parent)")
	heartbeat := flag.Duration("heartbeat", 5*time.Second,
		"keepalive probe interval on the parent link (only with -parent)")
	flag.Parse()

	mode, err := replica.ParseMode(*modeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	chaosCfg, err := transport.ParseChaosSpec(*chaosSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	pol, err := db.ParseSyncPolicy(*syncPolicy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var store *db.Store
	var srv *replica.Server
	if *parent != "" {
		// Relay mode: the mirror is rebuilt warm from the parent on every
		// restart, so a persistence log would only record derived state.
		if *logPath != "" {
			fmt.Fprintln(os.Stderr, "-log is the root's job; a relay's mirror is in-memory (drop -log or -parent)")
			os.Exit(2)
		}
		if *writeRate > 0 {
			fmt.Fprintln(os.Stderr, "-write-rate needs the authoritative store; point it at the root, not a relay")
			os.Exit(2)
		}
		place, err := tree.ParsePolicy(*placementSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		st, err := tree.NewRelay(1, mode, *shards, place)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// The parent link gets the same supervision as a mobile client's
		// server link: suspect on close, redial under backoff, warm resync.
		// An epoch fence from a restarted root reaches the children through
		// the station's InvalidateAll cascade.
		var sup atomic.Pointer[replica.Supervisor]
		dial := func() (transport.Link, error) {
			tcp, err := transport.DialLink(*parent, nil, func(error) {
				if s := sup.Load(); s != nil {
					s.Suspect()
				}
			})
			if err != nil {
				return nil, err
			}
			return tcp, nil
		}
		link, err := dial()
		if err != nil {
			fmt.Fprintln(os.Stderr, "dial parent:", err)
			os.Exit(1)
		}
		if err := st.ConnectParent(link); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		s := replica.NewSupervisor(st.Client(), dial, replica.SupervisorConfig{
			HeartbeatEvery: *heartbeat,
			Seed:           int64(*seed),
		})
		sup.Store(s)
		s.Start()
		defer s.Stop()
		store = st.Store()
		srv = st.Server()
		fmt.Printf("relay: parent=%s placement=%s\n", *parent, place)
	} else {
		if *logPath != "" {
			store, err = db.OpenWith(db.Options{Path: *logPath, Sync: pol, GroupInterval: *groupInterval})
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer store.Close()
			fmt.Printf("store: log=%s sync=%s epoch=%d\n", *logPath, store.SyncPolicyInUse(), store.Epoch())
		} else {
			store = db.NewStore()
		}
		srv, err = replica.NewServerShards(store, mode, *shards)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *maxSessions > 0 || *attachRate > 0 {
		if err := srv.SetAdmission(replica.AdmissionConfig{
			MaxSessions: *maxSessions,
			AttachRate:  *attachRate,
			RetryAfter:  *retryAfter,
		}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *memSoftLimit > 0 {
		srv.SetMemSoftLimit(*memSoftLimit)
		go func(every time.Duration) {
			for range time.Tick(every) {
				if n := srv.ShedToBudget(); n > 0 {
					fmt.Printf("shed %d session(s) to the memory budget\n", n)
				}
			}
		}(*shedEvery)
	}

	ln, err := listenAndServe(srv, *listen, chaosCfg, *outboxBytes, *writeTimeout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("mobirep-server: mode=%s shards=%d listening on %s\n", mode, srv.Shards(), ln)
	if chaosCfg.Enabled() {
		fmt.Printf("chaos enabled on client links: %s\n", *chaosSpec)
	}
	if *debugAddr != "" {
		bound, stop, err := obs.Serve(*debugAddr, obs.Default(), obs.DefaultTracer())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer stop()
		fmt.Printf("debug endpoints on http://%s/metrics\n", bound)
	}

	if *writeRate > 0 {
		go writeLoop(srv, *key, *writeRate, *seed)
	}
	if *sessionTTL > 0 {
		go func(ttl time.Duration) {
			for range time.Tick(ttl / 2) {
				if n := srv.ExpireIdle(ttl); n > 0 {
					fmt.Printf("reaped %d idle session(s)\n", n)
				}
			}
		}(*sessionTTL)
	}
	for {
		time.Sleep(*statsEvery)
		it, ok := store.Get(*key)
		if ok {
			fmt.Printf("key %q at version %d\n", *key, it.Version)
		}
	}
}

// listenAndServe accepts clients forever in the background and returns the
// bound address. When chaos is enabled every client link is wrapped in the
// fault injector, each connection on its own derived seed. Every accepted
// link gets the outbox bound and write deadline before the session sees
// it, and attaches go through admission control — a refused client is
// answered with Busy and its connection closed without a session ever
// existing.
func listenAndServe(srv *replica.Server, addr string, chaosCfg transport.Config, outboxBytes int, writeTimeout time.Duration) (string, error) {
	ln, err := transport.Listen(addr)
	if err != nil {
		return "", err
	}
	go func() {
		for conn := uint64(0); ; conn++ {
			link, err := ln.Accept()
			if err != nil {
				return
			}
			if outboxBytes > 0 {
				link.SetQueueLimit(outboxBytes)
			}
			if writeTimeout > 0 {
				link.SetWriteTimeout(writeTimeout)
			}
			var attached transport.Link = link
			if chaosCfg.Enabled() {
				cfg := chaosCfg
				cfg.Seed += conn
				chaos, err := transport.NewChaos(link, cfg)
				if err != nil {
					fmt.Fprintln(os.Stderr, "chaos:", err)
					link.Close()
					continue
				}
				attached = chaos
			}
			sess, err := srv.TryAttach(attached)
			if err != nil {
				fmt.Println("client refused: server busy")
				continue
			}
			link.Start(func(err error) {
				sess.Detach()
				if err != nil {
					fmt.Fprintln(os.Stderr, "client link:", err)
				} else {
					fmt.Println("client detached")
				}
			})
			fmt.Println("client attached")
		}
	}()
	return ln.Addr(), nil
}

func writeLoop(srv *replica.Server, key string, rate float64, seed uint64) {
	rng := stats.NewRNG(seed)
	for i := uint64(1); ; i++ {
		time.Sleep(time.Duration(rng.Exp(rate) * float64(time.Second)))
		if _, err := srv.Write(key, fmt.Appendf(nil, "auto-%d", i)); err != nil {
			fmt.Fprintln(os.Stderr, "write:", err)
			return
		}
	}
}
