// Package load drives large fleets of chaos-wrapped client sessions
// against one sharded replica server in-process, and reports attach
// throughput (sessions/sec) and read-latency percentiles. It is the
// engine behind cmd/mobirep-load: `mobirep-load -sessions N` prints
// what Run measures, and ci.sh's load smoke floors it.
package load

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/replica"
	"mobirep/internal/stats"
	"mobirep/internal/transport"
)

// Config describes one load run.
type Config struct {
	// Sessions is the number of concurrent client sessions to attach and
	// then drive. Required.
	Sessions int
	// Shards is the server shard count (power of two); 0 picks the
	// automatic count.
	Shards int
	// Mode is the per-key allocation mode; zero value is not valid — use
	// replica.SW(k), replica.Static1() or replica.Static2().
	Mode replica.Mode
	// Keys is the shared key-pool size. Each session reads mostly one
	// "home" key (session index mod Keys), so the expected write fan-out
	// per key is Sessions/Keys subscribers. 0 defaults to Sessions/8,
	// floored at 16.
	Keys int
	// Duration is how long the steady-state drive phase runs after the
	// attach phase. 0 defaults to 2s.
	Duration time.Duration
	// Workers is the number of driver goroutines; each owns a disjoint
	// slice of the sessions. 0 defaults to 16*GOMAXPROCS capped at 128:
	// workers park in the read timeout whenever chaos eats a frame, so
	// the pool must be much wider than the core count to keep reads
	// flowing around the blocked ones.
	Workers int
	// Chaos configures the per-session fault injectors (auto mode): both
	// link directions of every session run through transport.Chaos with a
	// seed derived from Seed and the session index. Manual must be false.
	Chaos transport.Config
	// Seed derives every per-session chaos seed and per-worker RNG.
	Seed uint64
	// Timeout bounds each remote read; 0 defaults to 25ms. Reads
	// normally complete inline over the in-memory transport, so only
	// chaos-dropped frames ever wait this long — and each one parks its
	// worker for the full timeout, so this bounds throughput loss under
	// faults more than tail latency.
	Timeout time.Duration
	// Writers is the number of background goroutines cycling server
	// writes over the key pool during the drive phase; 0 defaults to 2.
	Writers int
	// WritePause throttles each background writer between writes; 0
	// defaults to 200µs.
	WritePause time.Duration
}

// Result is one run's measurements.
type Result struct {
	Sessions int
	Shards   int
	Keys     int
	Workers  int

	// Attach phase: wall time to build, chaos-wrap, and attach every
	// session, and the resulting rate — the headline sessions/sec.
	AttachSeconds  float64
	SessionsPerSec float64

	// Drive phase.
	DriveSeconds float64
	Ops          int
	OpsPerSec    float64
	Errors       int // reads that timed out or found the session offline
	Writes       int // background server writes committed

	// Read latency over successful reads, exact nearest-rank percentiles
	// over the full sorted sample set (not a sketch). Samples is how many
	// reads the percentiles summarize — a tail percentile of a tiny run
	// says little (p99 of fewer than 100 samples is just the maximum), so
	// gates on these numbers should check Samples first.
	Samples            int
	P50, P90, P99, Max time.Duration

	// Session spread across shards at the end of the drive phase.
	ShardMin, ShardMax int
}

// Run executes one load run and tears everything down before returning.
func Run(cfg Config) (Result, error) {
	if cfg.Sessions <= 0 {
		return Result{}, errors.New("load: Sessions must be positive")
	}
	if cfg.Chaos.Manual {
		return Result{}, errors.New("load: manual chaos cannot drive a load run")
	}
	if cfg.Keys == 0 {
		cfg.Keys = cfg.Sessions / 8
		if cfg.Keys < 16 {
			cfg.Keys = 16
		}
	}
	if cfg.Duration == 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Workers == 0 {
		cfg.Workers = 16 * runtime.GOMAXPROCS(0)
		if cfg.Workers > 128 {
			cfg.Workers = 128
		}
	}
	if cfg.Workers > cfg.Sessions {
		cfg.Workers = cfg.Sessions
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 25 * time.Millisecond
	}
	if cfg.Writers == 0 {
		cfg.Writers = 2
	}
	if cfg.WritePause == 0 {
		cfg.WritePause = 200 * time.Microsecond
	}

	srv, err := replica.NewServerShards(db.NewStore(), cfg.Mode, cfg.Shards)
	if err != nil {
		return Result{}, err
	}
	keys := make([]string, cfg.Keys)
	for i := range keys {
		keys[i] = fmt.Sprintf("load-key-%d", i)
		if _, err := srv.Write(keys[i], []byte(fmt.Sprintf("v0-%d", i))); err != nil {
			return Result{}, err
		}
	}

	clients := make([]*replica.Client, cfg.Sessions)
	sessions := make([]*replica.Session, cfg.Sessions)

	// Worker w owns session indices [bounds[w], bounds[w+1]).
	bounds := make([]int, cfg.Workers+1)
	for w := 0; w <= cfg.Workers; w++ {
		bounds[w] = w * cfg.Sessions / cfg.Workers
	}

	// Attach phase: every session is built, chaos-wrapped on both
	// directions, and attached; the wall time over all workers is the
	// sessions/sec figure.
	var wg sync.WaitGroup
	attachErrs := make([]error, cfg.Workers)
	attachStart := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := bounds[w]; i < bounds[w+1]; i++ {
				ccfg := cfg.Chaos
				// Knuth-hash the index so neighbouring sessions do not get
				// neighbouring fault streams.
				ccfg.Seed = cfg.Seed + uint64(i)*2654435761
				a, b := transport.NewMemPair()
				sl, cl, err := transport.NewChaosPairOver(ccfg, a, b)
				if err != nil {
					attachErrs[w] = err
					return
				}
				cli, err := replica.NewClient(cl, cfg.Mode)
				if err != nil {
					attachErrs[w] = err
					return
				}
				cli.Timeout = cfg.Timeout
				sessions[i] = srv.Attach(sl)
				clients[i] = cli
			}
		}(w)
	}
	wg.Wait()
	attachSecs := time.Since(attachStart).Seconds()
	for _, err := range attachErrs {
		if err != nil {
			return Result{}, err
		}
	}
	if got := srv.Sessions(); got != cfg.Sessions {
		return Result{}, fmt.Errorf("load: attached %d sessions, server counts %d", cfg.Sessions, got)
	}

	// Drive phase: workers sweep their sessions issuing reads (mostly the
	// session's home key, so subscriptions concentrate and writes fan
	// out), while background writers keep every shard's propagation path
	// hot.
	type workerStats struct {
		lats []time.Duration
		ops  int
		errs int
	}
	perWorker := make([]workerStats, cfg.Workers)
	stopWriters := make(chan struct{})
	var writes atomic.Int64
	var writerWg sync.WaitGroup
	for wr := 0; wr < cfg.Writers; wr++ {
		writerWg.Add(1)
		go func(wr int) {
			defer writerWg.Done()
			payload := []byte(fmt.Sprintf("write-from-%d", wr))
			for i := wr; ; i += cfg.Writers {
				select {
				case <-stopWriters:
					return
				default:
				}
				if _, err := srv.Write(keys[i%len(keys)], payload); err != nil {
					return
				}
				writes.Add(1)
				time.Sleep(cfg.WritePause)
			}
		}(wr)
	}

	driveStart := time.Now()
	deadline := driveStart.Add(cfg.Duration)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := stats.NewRNG(cfg.Seed ^ (uint64(w) + 0x9e3779b97f4a7c15))
			st := &perWorker[w]
			lo, hi := bounds[w], bounds[w+1]
			st.lats = make([]time.Duration, 0, 4096)
			for i := lo; ; i++ {
				if i == hi {
					i = lo
				}
				if time.Now().After(deadline) {
					return
				}
				key := keys[i%len(keys)]
				if rng.Intn(16) == 0 {
					key = keys[rng.Intn(len(keys))]
				}
				t0 := time.Now()
				_, err := clients[i].Read(key)
				d := time.Since(t0)
				st.ops++
				if err != nil {
					st.errs++
				} else {
					st.lats = append(st.lats, d)
				}
			}
		}(w)
	}
	wg.Wait()
	driveSecs := time.Since(driveStart).Seconds()
	close(stopWriters)
	writerWg.Wait()

	shardCounts := srv.ShardSessions()

	// Teardown: detach every session so gauges return to their prior
	// level (Run may share a process with others) and close the links so
	// any chaos-delayed frames die quietly.
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := bounds[w]; i < bounds[w+1]; i++ {
				sessions[i].Detach()
				clients[i].Disconnect()
			}
		}(w)
	}
	wg.Wait()

	res := Result{
		Sessions:       cfg.Sessions,
		Shards:         srv.Shards(),
		Keys:           cfg.Keys,
		Workers:        cfg.Workers,
		AttachSeconds:  attachSecs,
		SessionsPerSec: float64(cfg.Sessions) / attachSecs,
		DriveSeconds:   driveSecs,
		Writes:         int(writes.Load()),
		ShardMin:       shardCounts[0],
		ShardMax:       shardCounts[0],
	}
	for _, c := range shardCounts {
		if c < res.ShardMin {
			res.ShardMin = c
		}
		if c > res.ShardMax {
			res.ShardMax = c
		}
	}
	var all []time.Duration
	for w := range perWorker {
		res.Ops += perWorker[w].ops
		res.Errors += perWorker[w].errs
		all = append(all, perWorker[w].lats...)
	}
	res.OpsPerSec = float64(res.Ops) / driveSecs
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.Samples = len(all)
	if n := len(all); n > 0 {
		res.P50 = percentile(all, 0.50)
		res.P90 = percentile(all, 0.90)
		res.P99 = percentile(all, 0.99)
		res.Max = all[n-1]
	}
	return res, nil
}

// percentile returns the exact nearest-rank percentile of the sorted
// samples: the smallest sample with at least q·n samples at or below it,
// index ceil(q·n)-1. The floor arithmetic it replaces overshot by one
// rank whenever q·n landed on an integer — p99 of exactly 100 samples
// reported the absolute maximum — which made short runs look worse than
// their distribution.
func percentile(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}
