package load

// The overload scenario: a fleet Factor× the server's admitted capacity
// attempts to attach, a slice of the admitted clients stops reading its
// link (transport.Chaos stall faults), and the server must keep serving
// the healthy remainder within bounded memory — refusing the overflow
// with Busy frames, capping what it buffers for the stalled readers, and
// shedding idle sessions when the accounted memory crosses the soft
// watermark. RunOverload measures all of it in one process: admission
// counts, Busy delivery, read latency over the healthy fleet, heap and
// memory-account peaks, and goroutine balance across teardown. It is the
// engine behind `mobirep-load -overload` and the ci.sh overload smoke.

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/replica"
	"mobirep/internal/transport"
)

// OverloadConfig describes one overload run.
type OverloadConfig struct {
	// Capacity is the server's MaxSessions admission cap. Required.
	Capacity int
	// Factor scales the attempted fleet: Factor*Capacity clients try to
	// attach, so everything past 1.0 is refused load. 0 defaults to 2.
	Factor float64
	// StalledFrac is the fraction of admitted clients whose server->client
	// direction stalls permanently (the reader wedged after the handshake).
	// 0 defaults to 0.1; set negative for none.
	StalledFrac float64
	// StallCap bounds the bytes buffered toward one stalled client before
	// its link is killed, mirroring a bounded outbox. 0 defaults to 256KiB.
	StallCap int
	// Mode is the per-key allocation mode. Required (zero value invalid).
	Mode replica.Mode
	// Shards is the server shard count (power of two); 0 auto-picks.
	Shards int
	// Keys is the shared key-pool size; 0 defaults as in Run (admitted/8,
	// floored at 16).
	Keys int
	// Duration is the steady-state drive phase length; 0 defaults to 2s.
	Duration time.Duration
	// Workers drives the healthy fleet; 0 defaults as in Run.
	Workers int
	// Writers / WritePause configure the background write load; 0 defaults
	// to 2 writers at 200µs.
	Writers    int
	WritePause time.Duration
	// Timeout bounds each measured read; 0 defaults to 25ms.
	Timeout time.Duration
	// Seed derives the per-link chaos seeds and worker RNGs.
	Seed uint64
	// MemSoftLimit is the server's soft memory watermark in accounted
	// bytes; a shed ticker enforces it during the drive phase. 0 disables
	// shedding.
	MemSoftLimit int64
	// ShedEvery is the shed ticker period; 0 defaults to 50ms.
	ShedEvery time.Duration
	// RetryAfter is the hint carried in Busy refusals; 0 defaults to 50ms.
	RetryAfter time.Duration
}

// OverloadResult is one overload run's measurements.
type OverloadResult struct {
	Capacity  int
	Attempted int
	Admitted  int
	Rejected  int
	// BusyFrames counts Busy frames received by the refused clients. The
	// protocol promise is BusyFrames == Rejected: nobody is dropped
	// without being told.
	BusyFrames int
	// Stalled is how many admitted clients had their server->client
	// direction wedged; Shed is how many sessions the watermark shedder
	// evicted during the drive phase.
	Stalled int
	Shed    int

	// Drive phase over the healthy (admitted, non-stalled) fleet.
	DriveSeconds       float64
	Ops                int
	OpsPerSec          float64
	Errors             int
	Samples            int
	P50, P90, P99, Max time.Duration

	// HeapPeakBytes is the largest live-heap sample (runtime.HeapAlloc)
	// observed during the drive phase; MemAccountPeak is the largest
	// server-side accounted total (Server.MemBytes). Both bound "did the
	// stalled 10% wedge memory".
	HeapPeakBytes  uint64
	MemAccountPeak int64

	// Goroutine balance: counts before attach and after teardown settled.
	// Anything the run leaked shows as After > Before.
	GoroutinesBefore int
	GoroutinesAfter  int
}

// RunOverload executes one overload scenario and tears everything down
// before returning.
func RunOverload(cfg OverloadConfig) (OverloadResult, error) {
	if cfg.Capacity <= 0 {
		return OverloadResult{}, errors.New("load: overload Capacity must be positive")
	}
	if cfg.Factor == 0 {
		cfg.Factor = 2
	}
	if cfg.Factor <= 0 {
		return OverloadResult{}, errors.New("load: overload Factor must be positive")
	}
	if cfg.StalledFrac == 0 {
		cfg.StalledFrac = 0.1
	}
	if cfg.StallCap == 0 {
		cfg.StallCap = 256 << 10
	}
	if cfg.Duration == 0 {
		cfg.Duration = 2 * time.Second
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
	if cfg.ShedEvery == 0 {
		cfg.ShedEvery = 50 * time.Millisecond
	}
	if cfg.RetryAfter == 0 {
		cfg.RetryAfter = 50 * time.Millisecond
	}
	attempted := int(cfg.Factor*float64(cfg.Capacity) + 0.5)
	if attempted < 1 {
		attempted = 1
	}
	if cfg.Keys == 0 {
		cfg.Keys = cfg.Capacity / 8
		if cfg.Keys < 16 {
			cfg.Keys = 16
		}
	}

	res := OverloadResult{
		Capacity:         cfg.Capacity,
		Attempted:        attempted,
		GoroutinesBefore: runtime.NumGoroutine(),
	}

	srv, err := replica.NewServerShards(db.NewStore(), cfg.Mode, cfg.Shards)
	if err != nil {
		return OverloadResult{}, err
	}
	if err := srv.SetAdmission(replica.AdmissionConfig{
		MaxSessions: cfg.Capacity,
		RetryAfter:  cfg.RetryAfter,
	}); err != nil {
		return OverloadResult{}, err
	}
	srv.SetMemSoftLimit(cfg.MemSoftLimit)

	keys := make([]string, cfg.Keys)
	for i := range keys {
		keys[i] = fmt.Sprintf("overload-key-%d", i)
		if _, err := srv.Write(keys[i], []byte(fmt.Sprintf("v0-%d", i))); err != nil {
			return OverloadResult{}, err
		}
	}

	// Attach phase, sequential so the admitted set is deterministic: the
	// first Capacity attempts land, the rest are refused. Every StallEvery-th
	// admitted index gets its server->client direction wrapped in a chaos
	// stall (probability 1, horizon far past the run) before attaching —
	// the wrap must precede TryAttach, so determinism of the admitted set
	// is what lets the stalled slice be chosen up front. Each client's
	// Busy handler counts refusals per index; the client side of the pair
	// is built first, so the synchronous in-memory delivery of a Busy
	// refusal is observed before TryAttach even returns.
	stallEvery := 0
	if cfg.StalledFrac > 0 {
		stallEvery = int(1 / cfg.StalledFrac)
		if stallEvery < 1 {
			stallEvery = 1
		}
	}
	clients := make([]*replica.Client, attempted)
	sessions := make([]*replica.Session, attempted)
	stalls := make([]*transport.Chaos, attempted)
	busies := make([]atomic.Int64, attempted)
	var healthy, stalledIdx []int
	for i := 0; i < attempted; i++ {
		a, b := transport.NewMemPair()
		var serverLink transport.Link = a
		willStall := stallEvery > 0 && i < cfg.Capacity && i%stallEvery == 0
		if willStall {
			ch, err := transport.NewChaos(a, transport.Config{
				Seed:     cfg.Seed + uint64(i)*2654435761,
				Stall:    1,
				StallFor: time.Hour,
				StallCap: cfg.StallCap,
			})
			if err != nil {
				return OverloadResult{}, err
			}
			serverLink, stalls[i] = ch, ch
		}
		cli, err := replica.NewClient(b, cfg.Mode)
		if err != nil {
			return OverloadResult{}, err
		}
		cli.Timeout = cfg.Timeout
		idx := i
		cli.SetBusyHandler(func(time.Duration, string) { busies[idx].Add(1) })
		clients[i] = cli
		sess, err := srv.TryAttach(serverLink)
		switch {
		case err == nil:
			sessions[i] = sess
			if willStall {
				stalledIdx = append(stalledIdx, i)
			} else {
				healthy = append(healthy, i)
			}
		case errors.Is(err, replica.ErrServerBusy):
			res.Rejected++
			cli.Disconnect()
		default:
			return OverloadResult{}, err
		}
	}
	res.Admitted = attempted - res.Rejected
	res.Stalled = len(stalledIdx)
	for i := range busies {
		if sessions[i] == nil {
			res.BusyFrames += int(busies[i].Load())
		}
	}

	// Subscribe the stalled clients: their requests still reach the server
	// (only the return direction is wedged), so a few reads of the home
	// key build the server-side subscription that makes background writes
	// propagate — straight into the stall buffer. The reads themselves
	// time out fast; they are not part of the measured fleet.
	var wg sync.WaitGroup
	for _, i := range stalledIdx {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			clients[i].Timeout = 2 * time.Millisecond
			key := keys[i%len(keys)]
			for r := 0; r < cfg.Mode.K+1; r++ {
				_, _ = clients[i].Read(key)
			}
		}(i)
	}
	wg.Wait()

	// Background load and watchdogs for the drive phase: writers cycle the
	// key pool, a shed ticker enforces the watermark, and a sampler tracks
	// heap and accounted-memory peaks.
	stop := make(chan struct{})
	var bgWg sync.WaitGroup
	var writes atomic.Int64
	for wr := 0; wr < cfg.Writers; wr++ {
		bgWg.Add(1)
		go func(wr int) {
			defer bgWg.Done()
			payload := []byte(fmt.Sprintf("overload-write-%d", wr))
			for i := wr; ; i += cfg.Writers {
				select {
				case <-stop:
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
	var shed atomic.Int64
	bgWg.Add(1)
	go func() {
		defer bgWg.Done()
		tick := time.NewTicker(cfg.ShedEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				shed.Add(int64(srv.ShedToBudget()))
			}
		}
	}()
	var heapPeak atomic.Uint64
	var memPeak atomic.Int64
	bgWg.Add(1)
	go func() {
		defer bgWg.Done()
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > heapPeak.Load() {
					heapPeak.Store(ms.HeapAlloc)
				}
				if m := srv.MemBytes(); m > memPeak.Load() {
					memPeak.Store(m)
				}
			}
		}
	}()

	// Drive phase over the healthy fleet only; the stalled clients sit in
	// the background soaking up propagations.
	workers := cfg.Workers
	if workers == 0 {
		workers = 16 * runtime.GOMAXPROCS(0)
		if workers > 128 {
			workers = 128
		}
	}
	if workers > len(healthy) {
		workers = len(healthy)
	}
	type workerStats struct {
		lats []time.Duration
		ops  int
		errs int
	}
	perWorker := make([]workerStats, workers)
	driveStart := time.Now()
	deadline := driveStart.Add(cfg.Duration)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &perWorker[w]
			lo := w * len(healthy) / workers
			hi := (w + 1) * len(healthy) / workers
			st.lats = make([]time.Duration, 0, 4096)
			for i := lo; ; i++ {
				if i == hi {
					i = lo
				}
				if time.Now().After(deadline) {
					return
				}
				idx := healthy[i]
				key := keys[idx%len(keys)]
				t0 := time.Now()
				_, err := clients[idx].Read(key)
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
	res.DriveSeconds = time.Since(driveStart).Seconds()
	close(stop)
	bgWg.Wait()
	res.Shed = int(shed.Load())
	res.HeapPeakBytes = heapPeak.Load()
	res.MemAccountPeak = memPeak.Load()

	// Teardown: detach what is still attached (shed sessions lose the
	// race harmlessly), release every client, and kill the stalled links
	// so their buffers die with them.
	for i := 0; i < attempted; i++ {
		if sessions[i] != nil {
			sessions[i].Detach()
		}
		clients[i].Disconnect()
		if stalls[i] != nil {
			stalls[i].Close()
		}
	}
	// Let read-timeout goroutines and writer stragglers drain before the
	// leak count: the balance must settle back to the pre-run level.
	settleDeadline := time.Now().Add(3 * time.Second)
	for {
		res.GoroutinesAfter = runtime.NumGoroutine()
		if res.GoroutinesAfter <= res.GoroutinesBefore+2 || time.Now().After(settleDeadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	var all []time.Duration
	for w := range perWorker {
		res.Ops += perWorker[w].ops
		res.Errors += perWorker[w].errs
		all = append(all, perWorker[w].lats...)
	}
	res.OpsPerSec = float64(res.Ops) / res.DriveSeconds
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
