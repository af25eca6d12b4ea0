// Package load drives a fleet of client sessions against replica servers
// in-process and measures what the fleet sees: attach throughput, read
// latency, write throughput, and whatever the case's fault puts at risk.
// One engine runs every case. The rows of Cases are the drives
// cmd/mobirep-load and ci.sh run: a chaos-wrapped fleet on one sharded
// server, an overloaded server behind an admission cap, a fleet moving
// over a binary support-station tree, and a soak of power-cut restarts.
package load

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mobirep/internal/db"
	"mobirep/internal/obs"
	"mobirep/internal/replica"
	"mobirep/internal/stats"
	"mobirep/internal/transport"
	"mobirep/internal/tree"
)

// Case describes one load run. A case drives at most one fault: Chaos,
// Capacity, Stations or RestartEvery; with none set the fleet reads a
// fault-free flat server.
type Case struct {
	// Name labels the case; mobirep-load -case picks a row of Cases by it.
	Name string

	// Sessions is how many clients attach, refused ones included.
	// Required.
	Sessions int
	// Shards is each server's shard count (power of two); 0 picks the
	// automatic count.
	Shards int
	// Mode is the per-key allocation mode on every edge; the zero value
	// is not valid.
	Mode replica.Mode
	// Keys is the shared key-pool size. Each session reads mostly its
	// home key (its index mod Keys), so a write fans out to about
	// Sessions/Keys holders. 0 defaults to an eighth of the admitted
	// fleet, at least 16.
	Keys int
	// Duration is how long the drive phase runs. Required.
	Duration time.Duration
	// Writers is the number of background goroutines cycling writes over
	// the key pool at the server that takes them, each pausing 200µs
	// after every write.
	Writers int
	// Timeout bounds each measured read; 0 waits for ever. Reads complete
	// inline over the in-memory transport, so only a lost frame waits
	// this long, parking its worker for the whole timeout.
	Timeout time.Duration
	// Seed derives every per-session fault seed and per-worker RNG.
	Seed uint64

	// Chaos wraps both directions of every session's link in a fault
	// injector seeded from Seed and the session index. Manual must be
	// false.
	Chaos transport.Config
	// Capacity, when positive, caps admission at that many sessions: the
	// fleet attaches one client at a time through TryAttach, the
	// Sessions-Capacity past the cap are refused with Busy frames, every
	// tenth admitted client stops reading its link, and only the healthy
	// rest is driven.
	Capacity int
	// MemSoftLimit is the soft watermark on the server's accounted bytes,
	// enforced by a shed ticker during the drive; 0 disables shedding.
	MemSoftLimit int64
	// Stations, when positive, spreads the fleet round-robin over the
	// leaves of a binary tree of that many support stations (heap order;
	// station 0, the root, takes the writes).
	Stations int
	// Placement is each relay's placement policy in a tree.
	Placement tree.Policy
	// HandoffEvery makes each worker hand one of its MCs to a random
	// other leaf every that many reads in a tree; 0 disables motion.
	HandoffEvery int
	// RestartEvery, when positive, keeps the store on the power-cut
	// filesystem under Sync and kills and restarts the server on that
	// cadence. Every client read and server write holds a lock the
	// restarter takes exclusively, so a crash stops the world, as it
	// does for a single-process server.
	RestartEvery time.Duration
	// Sync is the store's durability policy under RestartEvery.
	Sync db.SyncPolicy

	// Expect holds the case's gates; Check applies them.
	Expect Gates
}

// Gates are the thresholds a run must meet. Zero disables a gate.
type Gates struct {
	// FloorSessionsPerSec fails a run that attaches slower. Skipped under
	// 100 sessions, where the rate measures scheduler noise.
	FloorSessionsPerSec float64
	// CeilP99 fails a run whose read p99 is higher. Skipped under 100
	// samples, where p99 is just the maximum.
	CeilP99 time.Duration
	// MaxGoroutineGrowth fails a run that leaves more goroutines than
	// this behind after teardown.
	MaxGoroutineGrowth int
}

// Cases are the named drives, in the shape of a test table: each row is
// a complete Case, and mobirep-load's flags override its fields.
var Cases = []Case{
	{
		Name: "fleet", Sessions: 100000, Mode: replica.SW(3), Duration: 5 * time.Second,
		Writers: 2, Timeout: 25 * time.Millisecond, Seed: 1994,
		Chaos:  transport.Config{Drop: 0.01, Dup: 0.01},
		Expect: Gates{FloorSessionsPerSec: 500},
	},
	{
		Name: "overload", Sessions: 10000, Mode: replica.SW(3), Duration: 5 * time.Second,
		Writers: 2, Timeout: 25 * time.Millisecond, Seed: 1994,
		Capacity: 5000,
		Expect:   Gates{CeilP99: 100 * time.Millisecond, MaxGoroutineGrowth: 8},
	},
	{
		// Tree reads can take a fetch round trip per level, so the read
		// timeout is wider than the flat fleet's.
		Name: "tree", Sessions: 100000, Mode: replica.SW(3), Duration: 5 * time.Second,
		Writers: 2, Timeout: 250 * time.Millisecond, Seed: 1994,
		Stations: 7,
		Expect:   Gates{FloorSessionsPerSec: 500},
	},
	{
		// Static2 clients allocate on first read, so by the first crash
		// the whole fleet is warm and every restart must fence it.
		Name: "restart", Sessions: 8, Mode: replica.Static2(), Duration: 2 * time.Second,
		Writers: 2, Seed: 1994,
		RestartEvery: 120 * time.Millisecond, Sync: db.SyncGroup,
	},
}

// Named returns the row of Cases called name.
func Named(name string) (Case, bool) {
	for _, c := range Cases {
		if c.Name == name {
			return c, true
		}
	}
	return Case{}, false
}

const (
	writePause  = 200 * time.Microsecond // between one writer's writes
	stallEvery  = 10                     // under Capacity, every stallEvery-th admitted client stalls
	stallCap    = 256 << 10              // bytes buffered toward a stalled reader before its link dies
	shedEvery   = 50 * time.Millisecond  // shed ticker period
	retryAfter  = 50 * time.Millisecond  // hint carried by Busy refusals
	sampleEvery = 25 * time.Millisecond  // heap and accounted-memory sampler period
	yieldEvery  = 64                     // reads between a drive worker's yields
)

// Result is one run's measurements. Fields a case's fault does not
// touch stay zero.
type Result struct {
	Case     string
	Sessions int
	Shards   int
	Keys     int
	Workers  int
	Stations int
	Leaves   int

	// Attach phase: wall time to build and attach every session, and the
	// resulting rate.
	AttachSeconds  float64
	SessionsPerSec float64

	// Admission under Capacity: Admitted+Rejected == Sessions, and every
	// refusal must be answered, BusyFrames == Rejected. Stalled admitted
	// clients stopped reading; Shed sessions were evicted to the memory
	// watermark.
	Admitted   int
	Rejected   int
	BusyFrames int
	Stalled    int
	Shed       int

	// Drive phase. Errors counts reads (and handoffs) that failed;
	// Samples, the successful reads the latency percentiles summarize.
	// Percentiles are obs.HistogramSnapshot.Quantile over the drive
	// workers' merged histograms: never below the exact nearest rank and
	// at most 1/64 above it.
	DriveSeconds       float64
	Ops                int
	OpsPerSec          float64
	Errors             int
	Writes             int
	WritesPerSec       float64
	WriteErrors        int
	Samples            int
	P50, P90, P99, Max time.Duration

	// Session spread across the write server's shards after the drive.
	ShardMin, ShardMax int

	// Tree motion: completed handoffs, how many arrived cold, and the
	// latency from Handoff to resync completion.
	Handoffs, ColdHandoffs             int
	HandoffP50, HandoffP99, HandoffMax time.Duration

	// Restarts: Fences counts cold reattaches the bumped epoch forced;
	// LostAcked, acknowledged writes missing after a restart; Rollbacks,
	// reads below a version the same client saw since its last fence.
	// FinalEpoch is the store's epoch at the end.
	Restarts   int
	Fences     int
	LostAcked  int
	Rollbacks  int
	FinalEpoch uint64

	// HeapPeakBytes is the largest live heap (runtime.HeapAlloc) and
	// MemAccountPeak the largest accounted server total (MemBytes)
	// sampled during the drive.
	HeapPeakBytes  uint64
	MemAccountPeak int64

	// Goroutine counts before the run and after teardown settled.
	GoroutinesBefore int
	GoroutinesAfter  int
}

// member is one client of the fleet and what teardown must release.
type member struct {
	cli   *replica.Client
	sess  *replica.Session // flat server; nil when refused
	mc    *tree.MC
	stall *transport.Chaos // server end of a stalled reader
	busy  atomic.Int64     // Busy frames received
	// seen is the highest version read per key since the last fence;
	// only under RestartEvery.
	seen map[string]uint64
}

// engine is one run's shared state.
type engine struct {
	c      Case
	keys   []string
	srv    atomic.Pointer[replica.Server] // takes the writes; a restart swaps it
	tr     *tree.Tree
	leaves []int
	fleet  []member
	driven []int // indices of the members the drive reads through

	// Restart state. stw is held for read around every client read and
	// server write and exclusively by the restarter; ackMu orders the
	// writers' updates to acked, the version each write was acknowledged
	// at.
	stw   sync.RWMutex
	cfs   *db.CrashFS
	store *db.Store
	ackMu sync.Mutex
	acked map[string]uint64
}

// workerStats is one drive worker's tally. Its histograms are its own
// and unregistered; Run merges their snapshots.
type workerStats struct {
	ops, errs, cold, rollbacks int
	lat, handoffs              obs.Histogram
}

// Run executes one case and tears everything down before returning.
func Run(c Case) (Result, error) {
	faults := 0
	for _, on := range []bool{c.Chaos != (transport.Config{}), c.Capacity > 0, c.Stations > 0, c.RestartEvery > 0} {
		if on {
			faults++
		}
	}
	switch {
	case c.Sessions <= 0:
		return Result{}, errors.New("load: Sessions must be positive")
	case c.Duration <= 0:
		return Result{}, errors.New("load: Duration must be positive")
	case c.Capacity < 0:
		return Result{}, errors.New("load: Capacity must not be negative")
	case c.Chaos.Manual:
		return Result{}, errors.New("load: manual chaos cannot drive a load run")
	case faults > 1:
		return Result{}, errors.New("load: a case drives at most one of Chaos, Capacity, Stations and RestartEvery")
	}
	if err := c.Chaos.Validate(); err != nil {
		return Result{}, err
	}
	if c.Keys == 0 {
		admitted := c.Sessions
		if c.Capacity > 0 {
			admitted = min(admitted, c.Capacity)
		}
		c.Keys = max(admitted/8, 16)
	}
	res := Result{Case: c.Name, Sessions: c.Sessions, Keys: c.Keys, GoroutinesBefore: runtime.NumGoroutine()}
	e := &engine{c: c, fleet: make([]member, c.Sessions)}
	if err := e.stand(); err != nil {
		return Result{}, err
	}
	if c.Stations > 0 {
		res.Stations, res.Leaves = c.Stations, len(e.leaves)
	}

	attachStart := time.Now()
	var err error
	if c.Capacity > 0 {
		err = e.admit(&res)
	} else {
		err = each(c.Sessions, func(i int) error { return e.attach(i) })
		e.driven = make([]int, c.Sessions)
		for i := range e.driven {
			e.driven[i] = i
		}
	}
	if err != nil {
		return Result{}, err
	}
	res.AttachSeconds = time.Since(attachStart).Seconds()
	res.SessionsPerSec = float64(c.Sessions) / res.AttachSeconds
	if got := e.srv.Load().Sessions(); e.tr == nil && got != c.Sessions-res.Rejected {
		return Result{}, fmt.Errorf("load: attached %d sessions, server counts %d", c.Sessions-res.Rejected, got)
	}

	// Background load for the drive phase: the writers, the memory
	// sampler, and the case's fault.
	stop := make(chan struct{})
	var bg sync.WaitGroup
	var writes, writeErrs atomic.Int64
	for wr := 0; wr < c.Writers; wr++ {
		bg.Add(1)
		go func() {
			defer bg.Done()
			e.write(wr, stop, &writes, &writeErrs)
		}()
	}
	bg.Add(1)
	go func() {
		defer bg.Done()
		e.sample(stop, &res)
	}()
	if c.MemSoftLimit > 0 {
		bg.Add(1)
		go func() {
			defer bg.Done()
			e.shed(stop, &res)
		}()
	}
	workers := pool(len(e.driven))
	driveStart := time.Now()
	deadline := driveStart.Add(c.Duration)
	var faultErr error
	if c.RestartEvery > 0 {
		bg.Add(1)
		go func() {
			defer bg.Done()
			faultErr = e.restarts(deadline, &res)
		}()
	}

	// Drive phase: worker w sweeps its contiguous share of the driven
	// members, reading mostly each one's home key so subscriptions
	// concentrate and writes fan out.
	perWorker := make([]workerStats, workers)
	var wg sync.WaitGroup
	for w := range perWorker {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.drive(w, workers, deadline, &perWorker[w])
		}()
	}
	wg.Wait()
	res.DriveSeconds = time.Since(driveStart).Seconds()
	close(stop)
	bg.Wait()
	if faultErr != nil {
		return res, faultErr
	}
	shards := e.srv.Load().ShardSessions()
	res.Shards = len(shards)
	res.ShardMin, res.ShardMax = shards[0], shards[0]
	for _, n := range shards {
		res.ShardMin, res.ShardMax = min(res.ShardMin, n), max(res.ShardMax, n)
	}

	e.teardown()
	if c.RestartEvery > 0 {
		res.FinalEpoch = e.store.Epoch()
		e.store.Close()
	}
	// Let read-timeout goroutines and writer stragglers drain before the
	// leak count: the balance must settle back to the pre-run level.
	settle := time.Now().Add(3 * time.Second)
	for {
		res.GoroutinesAfter = runtime.NumGoroutine()
		if res.GoroutinesAfter <= res.GoroutinesBefore+2 || time.Now().After(settle) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	res.tally(perWorker)
	res.Workers = workers
	res.OpsPerSec = float64(res.Ops) / res.DriveSeconds
	res.Writes, res.WriteErrors = int(writes.Load()), int(writeErrs.Load())
	res.WritesPerSec = float64(res.Writes) / res.DriveSeconds
	return res, nil
}

// tally folds the drive workers' counts into r, and their latencies as
// nearest-rank percentiles of the merged histograms: the same Quantile
// that serves /metrics.
func (r *Result) tally(perWorker []workerStats) {
	var lat, handoffs obs.HistogramSnapshot
	for w := range perWorker {
		st := &perWorker[w]
		r.Ops += st.ops
		r.Errors += st.errs
		r.ColdHandoffs += st.cold
		r.Rollbacks += st.rollbacks
		lat.Merge(st.lat.Snapshot())
		handoffs.Merge(st.handoffs.Snapshot())
	}
	d := func(s obs.HistogramSnapshot, q float64) time.Duration { return time.Duration(s.Quantile(q)) }
	r.Samples, r.Handoffs = int(lat.Count), int(handoffs.Count)
	r.P50, r.P90, r.P99, r.Max = d(lat, 0.50), d(lat, 0.90), d(lat, 0.99), time.Duration(lat.Max)
	r.HandoffP50, r.HandoffP99, r.HandoffMax = d(handoffs, 0.50), d(handoffs, 0.99), time.Duration(handoffs.Max)
}

// Check applies c's gates, and the invariants every run must hold, to r
// and returns every failure joined; nil means the run passed.
func Check(c Case, r Result) error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	g := c.Expect
	if g.FloorSessionsPerSec > 0 && r.Sessions >= 100 && r.SessionsPerSec < g.FloorSessionsPerSec {
		fail("attach rate %.0f sessions/sec is under the floor %.0f", r.SessionsPerSec, g.FloorSessionsPerSec)
	}
	if r.BusyFrames != r.Rejected {
		fail("%d refused attaches but %d Busy frames received: a client was dropped without being told",
			r.Rejected, r.BusyFrames)
	}
	if g.CeilP99 > 0 && r.Samples >= 100 && r.P99 > g.CeilP99 {
		fail("read p99 %v is over the ceiling %v", r.P99, g.CeilP99)
	}
	if g.MaxGoroutineGrowth > 0 && r.GoroutinesAfter > r.GoroutinesBefore+g.MaxGoroutineGrowth {
		fail("%d goroutines before, %d after teardown (allowed growth %d): the run leaked",
			r.GoroutinesBefore, r.GoroutinesAfter, g.MaxGoroutineGrowth)
	}
	if r.ColdHandoffs > 0 {
		fail("%d handoffs arrived cold with no root restart in the run", r.ColdHandoffs)
	}
	if c.RestartEvery > 0 {
		// Under sync=never a crash may take any unsynced suffix, so the
		// store itself, and with it a read, may roll back.
		if c.Sync != db.SyncNever && r.LostAcked != 0 {
			fail("lost %d acknowledged writes across %d restarts", r.LostAcked, r.Restarts)
		}
		if c.Sync != db.SyncNever && r.Rollbacks != 0 {
			fail("%d client-visible rollbacks across %d restarts", r.Rollbacks, r.Restarts)
		}
		if r.FinalEpoch != uint64(1+r.Restarts) {
			fail("epoch %d after %d restarts, want %d (one bump per open)", r.FinalEpoch, r.Restarts, 1+r.Restarts)
		}
		if r.Fences == 0 {
			fail("no epoch fences across %d restarts of a warm fleet", r.Restarts)
		}
	}
	return errors.Join(errs...)
}

// stand builds the server or tree that takes the writes and seeds the
// key pool.
func (e *engine) stand() error {
	c := e.c
	store := db.NewStore()
	if c.RestartEvery > 0 {
		e.cfs = db.NewCrashFS()
		var err error
		if store, err = e.open(); err != nil {
			return err
		}
		e.store, e.acked = store, make(map[string]uint64)
	}
	var srv *replica.Server
	if c.Stations > 0 {
		topo := tree.Binary(c.Stations)
		connect := func(child, parent int) (transport.Link, transport.Link, error) {
			a, b := transport.NewMemPair()
			return a, b, nil
		}
		tr, err := tree.Build(topo, store, c.Mode, c.Shards, c.Placement, connect)
		if err != nil {
			return err
		}
		e.tr, e.leaves, srv = tr, topo.Leaves(), tr.Stations[0].Server()
	} else {
		var err error
		if srv, err = replica.NewServerShards(store, c.Mode, c.Shards); err != nil {
			return err
		}
		if c.Capacity > 0 {
			if err := srv.SetAdmission(replica.AdmissionConfig{MaxSessions: c.Capacity, RetryAfter: retryAfter}); err != nil {
				return err
			}
		}
		srv.SetMemSoftLimit(c.MemSoftLimit)
	}
	e.srv.Store(srv)
	e.keys = make([]string, c.Keys)
	for i := range e.keys {
		e.keys[i] = fmt.Sprintf("load-key-%d", i)
		it, err := srv.Write(e.keys[i], []byte(fmt.Sprintf("v0-%d", i)))
		if err != nil {
			return err
		}
		if e.acked != nil {
			e.acked[e.keys[i]] = it.Version
		}
	}
	return nil
}

func (e *engine) open() (*db.Store, error) {
	return db.OpenWith(db.Options{Path: "soak.log", Sync: e.c.Sync, FS: e.cfs})
}

// attach builds member i and attaches it: at its round-robin home leaf in
// a tree, otherwise to the flat server, chaos-wrapped when the case
// injects faults.
func (e *engine) attach(i int) error {
	m, c := &e.fleet[i], e.c
	a, b := transport.NewMemPair()
	if e.tr != nil {
		mc, err := e.tr.AttachMC(e.leaves[i%len(e.leaves)], a, b)
		if err != nil {
			return err
		}
		m.mc, m.cli = mc, mc.Client
		m.cli.Timeout = c.Timeout
		return nil
	}
	var sl, cl transport.Link = a, b
	if c.Chaos != (transport.Config{}) {
		ccfg := c.Chaos
		// Knuth-hash the index so neighbouring sessions do not get
		// neighbouring fault streams.
		ccfg.Seed = c.Seed + uint64(i)*2654435761
		var err error
		if sl, cl, err = transport.NewChaosPairOver(ccfg, a, b); err != nil {
			return err
		}
	}
	cli, err := replica.NewClient(cl, c.Mode)
	if err != nil {
		return err
	}
	cli.Timeout = c.Timeout
	m.cli, m.sess = cli, e.srv.Load().Attach(sl)
	if c.RestartEvery > 0 {
		m.seen = make(map[string]uint64)
	}
	return nil
}

// pool sizes a goroutine pool for n sessions: 16 per CPU, at most 128.
// A worker parks for the whole read timeout whenever chaos eats a frame,
// so the pool must be much wider than the core count to keep reads
// flowing around the blocked ones.
func pool(n int) int { return min(16*runtime.GOMAXPROCS(0), 128, n) }

// each runs fn(i) for every i in [0, n) on a pool of goroutines, each
// owning a contiguous range, and returns their errors joined.
func each(n int, fn func(i int) error) error {
	workers := pool(n)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w * n / workers; i < (w+1)*n/workers; i++ {
				if errs[w] = fn(i); errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// admit attaches the fleet under the admission cap, one client at a time
// so the admitted set is deterministic: the first Capacity attempts land
// and the rest are refused. Every stallEvery-th admitted client gets its
// server->client direction wrapped in a stall that outlasts the run
// before attaching, which is why the admitted set must be known up front.
// The client end is wired first, so an in-memory Busy refusal is counted
// before TryAttach returns.
func (e *engine) admit(res *Result) error {
	c, srv := e.c, e.srv.Load()
	var stalled []int
	for i := range e.fleet {
		m := &e.fleet[i]
		a, b := transport.NewMemPair()
		var sl transport.Link = a
		if i < c.Capacity && i%stallEvery == 0 {
			ch, err := transport.NewChaos(a, transport.Config{
				Seed: c.Seed + uint64(i)*2654435761, Stall: 1, StallFor: time.Hour, StallCap: stallCap,
			})
			if err != nil {
				return err
			}
			sl, m.stall = ch, ch
		}
		cli, err := replica.NewClient(b, c.Mode)
		if err != nil {
			return err
		}
		cli.Timeout = c.Timeout
		cli.SetBusyHandler(func(time.Duration, string) { m.busy.Add(1) })
		m.cli = cli
		sess, err := srv.TryAttach(sl)
		switch {
		case err == nil:
			m.sess = sess
			if m.stall != nil {
				stalled = append(stalled, i)
			} else {
				e.driven = append(e.driven, i)
			}
		case errors.Is(err, replica.ErrServerBusy):
			res.Rejected++
			cli.Disconnect()
		default:
			return err
		}
	}
	res.Admitted = c.Sessions - res.Rejected
	for i := range e.fleet {
		if e.fleet[i].sess == nil {
			res.BusyFrames += int(e.fleet[i].busy.Load())
		}
	}
	res.Stalled = len(stalled)

	// A stalled client's requests still reach the server (only the return
	// direction is wedged), so a few reads of its home key build the
	// subscription that makes writes propagate straight into the stall
	// buffer. The reads time out fast and are not measured.
	var wg sync.WaitGroup
	for _, i := range stalled {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cli := e.fleet[i].cli
			cli.Timeout = 2 * time.Millisecond
			for r := 0; r <= c.Mode.K; r++ {
				_, _ = cli.Read(e.keys[i%len(e.keys)])
			}
		}()
	}
	wg.Wait()
	return nil
}

// hold and release bracket every client read and server write with the
// restarter's stop-the-world lock; they cost nothing without restarts.
func (e *engine) hold() {
	if e.cfs != nil {
		e.stw.RLock()
	}
}

func (e *engine) release() {
	if e.cfs != nil {
		e.stw.RUnlock()
	}
}

// write is one background writer: it cycles the key pool until stop,
// recording each acknowledged version under RestartEvery, where the
// durability contract starts covering a write the moment it returns.
func (e *engine) write(wr int, stop <-chan struct{}, writes, errs *atomic.Int64) {
	payload := []byte(fmt.Sprintf("write-from-%d", wr))
	for i := wr; ; i += e.c.Writers {
		select {
		case <-stop:
			return
		default:
		}
		key := e.keys[i%len(e.keys)]
		e.hold()
		it, err := e.srv.Load().Write(key, payload)
		if err == nil && e.acked != nil {
			e.ackMu.Lock()
			e.acked[key] = it.Version
			e.ackMu.Unlock()
		}
		e.release()
		if err != nil {
			errs.Add(1)
		} else {
			writes.Add(1)
		}
		time.Sleep(writePause)
	}
}

// drive is drive worker w of workers: it reads through its share of the
// driven members until the deadline, yielding every yieldEvery reads so
// that reads served inline from local copies cannot starve the writers.
func (e *engine) drive(w, workers int, deadline time.Time, st *workerStats) {
	rng := stats.NewRNG(e.c.Seed ^ (uint64(w) + 0x9e3779b97f4a7c15))
	lo, hi := w*len(e.driven)/workers, (w+1)*len(e.driven)/workers
	for j := lo; ; j++ {
		if j == hi {
			j = lo
		}
		if st.ops%yieldEvery == yieldEvery-1 {
			runtime.Gosched()
		}
		if time.Now().After(deadline) {
			return
		}
		i := e.driven[j]
		m := &e.fleet[i]
		key := e.keys[i%len(e.keys)]
		if rng.Intn(16) == 0 {
			key = e.keys[rng.Intn(len(e.keys))]
		}
		e.hold()
		t0 := time.Now()
		it, err := m.cli.Read(key)
		d := time.Since(t0)
		if err == nil && m.seen != nil {
			if it.Version < m.seen[key] {
				st.rollbacks++
			}
			m.seen[key] = it.Version
		}
		e.release()
		st.ops++
		if err != nil {
			st.errs++
		} else {
			st.lat.Observe(float64(d))
		}
		if e.c.HandoffEvery > 0 && st.ops%e.c.HandoffEvery == 0 {
			e.handoff(m, rng, st)
		}
	}
}

// handoff moves m to a random other leaf and times it to resync
// completion.
func (e *engine) handoff(m *member, rng *stats.RNG, st *workerStats) {
	to := e.leaves[rng.Intn(len(e.leaves))]
	for len(e.leaves) > 1 && to == m.mc.Station() {
		to = e.leaves[rng.Intn(len(e.leaves))]
	}
	a, b := transport.NewMemPair()
	t0 := time.Now()
	done, err := m.mc.Handoff(to, a, b)
	if err != nil {
		st.errs++
		return
	}
	<-done
	st.handoffs.Observe(float64(time.Since(t0)))
	if !m.mc.FinishHandoff(a) {
		st.cold++
	}
}

// sample tracks the heap and accounted-memory peaks until stop.
func (e *engine) sample(stop <-chan struct{}, res *Result) {
	tick := time.NewTicker(sampleEvery)
	defer tick.Stop()
	var ms runtime.MemStats
	for {
		runtime.ReadMemStats(&ms)
		res.HeapPeakBytes = max(res.HeapPeakBytes, ms.HeapAlloc)
		res.MemAccountPeak = max(res.MemAccountPeak, e.srv.Load().MemBytes())
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// shed enforces the memory watermark until stop.
func (e *engine) shed(stop <-chan struct{}, res *Result) {
	tick := time.NewTicker(shedEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			res.Shed += e.srv.Load().ShedToBudget()
		}
	}
}

// restarts kills and restarts the server every RestartEvery until the
// deadline.
func (e *engine) restarts(deadline time.Time, res *Result) error {
	rng := stats.NewRNG(e.c.Seed)
	for {
		time.Sleep(e.c.RestartEvery)
		if !time.Now().Before(deadline) {
			return nil
		}
		if err := e.restart(rng, res); err != nil {
			return fmt.Errorf("load: restart %d: %w", res.Restarts+1, err)
		}
	}
}

// restart is one power cut and the full production recovery, with the
// world stopped: keep a seeded prefix of the store's unsynced journal,
// reopen the store (bumping its epoch) under a fresh server, audit the
// acknowledged versions and re-anchor them to what survived, then redial
// every client, reattaching cold where the epoch fence fires.
func (e *engine) restart(rng *stats.RNG, res *Result) error {
	e.stw.Lock()
	defer e.stw.Unlock()
	cut := rng.Intn(e.cfs.Ops() + 1)
	for i := range e.fleet {
		e.fleet[i].cli.Suspend()
	}
	e.cfs.Kill(cut)
	store, err := e.open()
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	srv, err := replica.NewServerShards(store, e.c.Mode, e.c.Shards)
	if err != nil {
		return err
	}
	e.store = store
	e.srv.Store(srv)
	res.Restarts++
	for key, v := range e.acked {
		it, _ := store.Get(key)
		if it.Version < v {
			res.LostAcked++
		}
		e.acked[key] = it.Version
	}
	for i := range e.fleet {
		m := &e.fleet[i]
		sl, cl := transport.NewMemPair()
		m.sess = srv.Attach(sl)
		if _, err := m.cli.ResumeResync(cl); err != nil {
			return fmt.Errorf("resync client %d: %w", i, err)
		}
		if m.cli.EpochFenced() {
			res.Fences++
			m.cli.Reattach(cl)
			// The regression is advertised, so this client starts over.
			clear(m.seen)
		}
		if m.cli.Offline() {
			return fmt.Errorf("client %d offline after recovery", i)
		}
	}
	return nil
}

// teardown detaches every session, so gauges return to their prior level
// (a run may share a process with others), and closes every link, so
// delayed and stalled frames die quietly.
func (e *engine) teardown() {
	_ = each(len(e.fleet), func(i int) error {
		m := &e.fleet[i]
		switch {
		case m.mc != nil:
			m.mc.Session().Detach()
		case m.sess != nil:
			m.sess.Detach()
		}
		if m.cli != nil {
			m.cli.Disconnect()
		}
		if m.stall != nil {
			m.stall.Close()
		}
		return nil
	})
}
