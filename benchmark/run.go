package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"mobirep/internal/obs"
	"mobirep/internal/replica"
)

// options is one invocation's input.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string

	sz        sizes
	warmup    time.Duration // before a timed pass
	warmupTr  time.Duration // before each half of a traced run
	setupReps int
	setupFor  time.Duration // a short set-up is repeated until this is spent

	// corrupt, set only by the self-test, damages frames on their way to
	// the client so the verification hooks have something to catch.
	corrupt func(frame []byte)
}

func defaultOptions() options {
	return options{
		seed: 1, seconds: 18, outDir: "benchmark/out",
		sz: defaultSizes, warmup: warmupE2E, warmupTr: warmupTraced, setupReps: setupReps, setupFor: setupBudget,
	}
}

// opClass is what kind of operation a closed-loop step was.
type opClass uint8

const (
	opRead    opClass = iota
	opWrite           // Write entry until the write is visible at the issuing MC
	opHandoff         // Handoff call until the warm resync is done
	opTask            // one sim_replay task
	nOpClasses
)

// connRec is what one connection's driver records. Nothing else touches
// it while the pass runs.
type connRec struct {
	lat       [nOpClasses]hist
	writeCall hist // Server.Write entry → return
	slices    [passSlices]sliceRec
	attempted int64
	failed    int64
	firstErr  error
}

// sliceRec is one of the passSlices equal parts of a pass. The
// end-to-end timings and the throughput are taken per slice and the
// median slice is reported (sliceStats): a stall or a slow episode of the
// host that lands in a few slices must not move a number that stands for
// the whole pass.
type sliceRec struct {
	ops  int64 // operations of every class completed in the slice
	prim hist  // latencies of the workload's primary class
}

func (r *connRec) merge(o *connRec) {
	for i := range r.lat {
		r.lat[i].merge(&o.lat[i])
	}
	for i := range r.slices {
		r.slices[i].ops += o.slices[i].ops
		r.slices[i].prim.merge(&o.slices[i].prim)
	}
	r.writeCall.merge(&o.writeCall)
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

func (r *connRec) ops() int64 { return r.attempted - r.failed }

// sliceStats reduces a pass's slices to the numbers reported for it:
// the median over the slices of each slice's throughput and of its mean,
// median and 95th-percentile primary latency. The host this runs on
// changes speed in steps that last seconds (see README, "How steady it
// is"); the median slice reads the state the host was in for most of the
// pass and ignores the episodes.
func sliceStats(slices []sliceRec, sliceSeconds float64) (opsPerS, meanUs, p50Us, p95Us float64) {
	var rate, mean, p50, p95 []float64
	for i := range slices {
		s := &slices[i]
		rate = append(rate, float64(s.ops)/sliceSeconds)
		if s.prim.n > 0 {
			mean = append(mean, us(s.prim.mean()))
			p50 = append(p50, us(s.prim.quantile(0.50)))
			p95 = append(p95, us(s.prim.quantile(0.95)))
		}
	}
	return median(rate), median(mean), median(p50), median(p95)
}

// sliceOf returns the slice a completion at time t belongs to, in a pass
// that began at start and lasts d nanoseconds.
func sliceOf(t, start, d int64) int {
	i := int((t - start) * passSlices / d)
	if i < 0 {
		return 0
	}
	if i >= passSlices {
		return passSlices - 1
	}
	return i
}

// instance is one built network workload: servers listening, clients
// attached, keys preloaded.
type instance interface {
	// op runs connection c's next operation, which began at t0. It
	// returns the operation's class, when it completed, and when the
	// connection was free for the next one (later than done only when the
	// harness itself had work to do in between).
	op(c int, t0 int64, rec *connRec) (cls opClass, done, next int64, err error)
	// beginPass and endPass note the counters whose movement during the
	// pass the per-layer metrics report (verify, which runs later, moves
	// them too).
	beginPass()
	endPass()
	// ledger sums every protocol Meter the instance has.
	ledger() replica.MeterSnapshot
	// verify waits for propagation in flight to land and checks the end
	// state. It runs once, after the last pass.
	verify() error
	// harnessBytes is heap the harness itself holds on purpose (the
	// in-memory log device), left out of heap_mb.
	harnessBytes() int64
	// layers adds the workload's own per-layer metrics after a traced
	// pass of ops operations.
	layers(m metrics, pass *passResult)
	// traces returns the per-connection trace state (traced instances).
	traces() []*connTrace
	close()
}

// netWorkload builds instances of one network workload.
type netWorkload struct {
	name    string
	primary opClass
	build   func(o *options, tr *tracer) (instance, error)
}

// metrics maps a metric name to its value.
type metrics map[string]float64

// passResult is one closed-loop pass.
type passResult struct {
	rec     connRec
	seconds float64
	before  replica.MeterSnapshot
	after   replica.MeterSnapshot
	mallocs uint64
	obs0    obs.Snapshot
	obs1    obs.Snapshot
}

func (p *passResult) ledger() replica.MeterSnapshot {
	return replica.MeterSnapshot{
		DataMsgs:    p.after.DataMsgs - p.before.DataMsgs,
		ControlMsgs: p.after.ControlMsgs - p.before.ControlMsgs,
		Connections: p.after.Connections - p.before.Connections,
		Bytes:       p.after.Bytes - p.before.Bytes,
	}
}

// counter returns how far an obs counter moved during the pass.
func (p *passResult) counter(name string) float64 {
	return float64(p.obs1.Counter(name) - p.obs0.Counter(name))
}

// drive runs one closed-loop pass: one goroutine and one outstanding
// operation per connection, until d has passed.
func drive(inst instance, nconn int, d time.Duration, traced bool, primary opClass) *passResult {
	recs := make([]connRec, nconn)
	inst.beginPass()
	res := &passResult{before: inst.ledger(), obs0: obs.Default().Snapshot()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs

	var wg sync.WaitGroup
	start := nowNs()
	deadline := start + int64(d)
	for c := 0; c < nconn; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec := &recs[c]
			for t0 := nowNs(); t0 < deadline; {
				cls, done, next, err := inst.op(c, t0, rec)
				rec.attempted++
				if err != nil {
					rec.failed++
					if rec.firstErr == nil {
						rec.firstErr = err
					}
				} else {
					rec.lat[cls].add(done - t0)
					s := &rec.slices[sliceOf(done, start, int64(d))]
					s.ops++
					if cls == primary {
						s.prim.add(done - t0)
					}
				}
				// A traced op does its bookkeeping after it completed; keep
				// that out of the next operation's latency.
				if traced {
					next = nowNs()
				}
				t0 = next
			}
		}(c)
	}
	wg.Wait()
	res.seconds = float64(nowNs()-start) / 1e9
	inst.endPass()

	runtime.ReadMemStats(&ms)
	res.mallocs = ms.Mallocs - mallocs
	res.after = inst.ledger()
	res.obs1 = obs.Default().Snapshot()
	for i := range recs {
		res.rec.merge(&recs[i])
	}
	return res
}

// liveHeapMB forces a collection and returns the live heap in MB, less
// what the harness holds on purpose.
func liveHeapMB(harness int64) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return (float64(ms.HeapAlloc) - float64(harness)) / 1e6
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// outcome is what one invocation produced.
type outcome struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   metrics
	notes     []string // verification failures and the like
	detail    map[string]any
}

// judge sets correct and the notes from the operations that failed and
// the verification's verdict.
func (out *outcome) judge(rec *connRec, verr error) {
	out.correct = true
	if rec.failed > 0 {
		out.correct = false
		out.notes = append(out.notes, fmt.Sprintf("%d of %d operations failed; first: %v", rec.failed, rec.attempted, rec.firstErr))
	}
	if verr != nil {
		out.correct = false
		out.notes = append(out.notes, "verification: "+verr.Error())
	}
}

// confine puts the process on one P and one CPU until the returned
// function is called, and reports which CPU (-1: not pinned, with why).
// A closed loop with one operation in flight hands each request through
// five goroutines; spread over two virtual CPUs every hand-off may wake a
// halted one, which costs more than the request and a different amount
// from one minute to the next. On one CPU the chain runs back to back and
// the latency is the program's own path.
func confine() (cpu int, why string, release func()) {
	procs := runtime.GOMAXPROCS(1)
	release = func() { runtime.GOMAXPROCS(procs) }
	all, err := allowedCPUs()
	if err == nil {
		cpu = all.highest()
		err = setAffinity(oneCPU(cpu))
	}
	if err != nil {
		return -1, err.Error(), release
	}
	return cpu, "", func() {
		setAffinity(all)
		runtime.GOMAXPROCS(procs)
	}
}

// runNet runs one network workload: the timed pass, or the traced pass.
func runNet(w netWorkload, o *options) (*outcome, error) {
	cpu, why, release := confine()
	defer release()
	out, err := runNetConfined(w, o)
	if err == nil {
		out.detail["pinned_cpu"] = cpu
		if why != "" {
			out.detail["not_pinned"] = why
		}
	}
	return out, err
}

func runNetConfined(w netWorkload, o *options) (*outcome, error) {
	nconn := clientConns
	if o.trace {
		return runNetTraced(w, o, nconn)
	}
	out := &outcome{metrics: metrics{}, detail: map[string]any{}}

	// Set-up, repeated for a steady median: at least setupReps times, and
	// a set-up that takes milliseconds until setupBudget is spent. The
	// last instance is the one the passes use.
	var inst instance
	var setups []float64
	for begin := nowNs(); len(setups) < o.setupReps || (len(setups) < o.setupReps*setupMaxFactor && nowNs()-begin < int64(o.setupFor)); {
		if inst != nil {
			inst.close()
		}
		t0 := nowNs()
		var err error
		if inst, err = w.build(o, nil); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, float64(nowNs()-t0)/1e9)
	}
	defer inst.close()

	drive(inst, nconn, o.warmup, false, w.primary)
	pass := drive(inst, nconn, time.Duration(o.seconds*float64(time.Second)), false, w.primary)
	heap := liveHeapMB(inst.harnessBytes())
	verr := inst.verify()

	rec := &pass.rec
	ops := float64(rec.ops())
	prim := &rec.lat[w.primary]
	led := pass.ledger()
	out.attempted, out.failed = rec.attempted, rec.failed
	rate, mean, p50, p95 := sliceStats(rec.slices[:], o.seconds/passSlices)
	out.metrics["setup_s"] = median(setups)
	out.metrics["ops_per_s"] = rate
	out.metrics["op_mean_us"] = mean
	out.metrics["op_p50_us"] = p50
	out.metrics["op_p95_us"] = p95
	out.metrics["cost_per_op"] = led.MessageCost(omega) / ops
	out.metrics["allocs_per_op"] = float64(pass.mallocs) / ops
	out.metrics["heap_mb"] = heap
	tailPct, tailNs := prim.tail()
	out.detail["op_samples"] = prim.n
	out.detail["op_tail_percentile"] = tailPct
	out.detail["op_tail_us"] = us(tailNs)
	out.detail["setup_s_runs"] = setups
	out.detail["pass_seconds"] = pass.seconds
	var sliceOps []int64
	var sliceMean, sliceP50, sliceP95 []float64
	for i := range rec.slices {
		sliceOps = append(sliceOps, rec.slices[i].ops)
		sliceMean = append(sliceMean, us(rec.slices[i].prim.mean()))
		sliceP50 = append(sliceP50, us(rec.slices[i].prim.quantile(0.50)))
		sliceP95 = append(sliceP95, us(rec.slices[i].prim.quantile(0.95)))
	}
	out.detail["slice_ops"] = sliceOps
	out.detail["slice_op_mean_us"] = sliceMean
	out.detail["slice_op_p50_us"] = sliceP50
	out.detail["slice_op_p95_us"] = sliceP95
	out.detail["whole_pass_ops_per_s"] = ops / pass.seconds
	out.detail["whole_pass_op_mean_us"] = us(prim.mean())
	out.detail["whole_pass_op_p99_us"] = us(prim.quantile(0.99))
	out.detail["wire_bytes_per_op"] = float64(led.Bytes) / ops

	out.judge(rec, verr)
	return out, nil
}

// runNetTraced runs the traced variant: a baseline quarter on an
// untapped instance (what tracing costs is the difference), then the
// traced pass on an instance whose every link carries a tap.
func runNetTraced(w netWorkload, o *options, nconn int) (*outcome, error) {
	out := &outcome{metrics: metrics{}, detail: map[string]any{}}
	total := time.Duration(o.seconds * float64(time.Second))
	baseDur := time.Duration(float64(total) * baselineShare)

	// The baseline runs half before and half after the traced pass, so a
	// process that is still warming up, or a host that drifts, does not
	// read as tracing overhead.
	base, err := w.build(o, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer base.close()
	tr := newTracer()
	tr.corrupt = o.corrupt
	inst, err := w.build(o, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()
	drive(base, nconn, o.warmupTr, false, w.primary)
	drive(inst, nconn, o.warmupTr, true, w.primary)
	tr.reset()
	for _, ct := range inst.traces() {
		ct.resetPass()
	}
	base1 := drive(base, nconn, baseDur/2, false, w.primary)
	pass := drive(inst, nconn, total-baseDur, true, w.primary)
	base2 := drive(base, nconn, baseDur/2, false, w.primary)
	verr := inst.verify()
	unmatched := tr.unmatched()

	rec := &pass.rec
	ops := float64(rec.ops())
	m := out.metrics
	for _, d := range perLayer {
		m[d.name] = 0
	}
	out.attempted, out.failed = rec.attempted, rec.failed

	// Harness-clock timings of every operation class.
	rd, wr, ho := &rec.lat[opRead], &rec.lat[opWrite], &rec.lat[opHandoff]
	m["e2e.read_mean_us"] = us(rd.mean())
	m["e2e.read_p50_us"] = us(rd.quantile(0.50))
	m["e2e.read_p99_us"] = us(rd.quantile(0.99))
	m["e2e.write_p50_us"] = us(rec.writeCall.quantile(0.50))
	m["e2e.write_visible_p50_us"] = us(wr.quantile(0.50))
	m["e2e.write_visible_p99_us"] = us(wr.quantile(0.99))
	m["e2e.handoff_p50_us"] = us(ho.quantile(0.50))

	// Ledger and frame counts.
	led := pass.ledger()
	m["e2e.wire_bytes_per_op"] = float64(led.Bytes) / ops
	m["replica.data_msgs_per_op"] = float64(led.DataMsgs) / ops
	m["replica.control_msgs_per_op"] = float64(led.ControlMsgs) / ops
	m["replica.connections_per_op"] = float64(led.Connections) / ops
	frames := float64(tr.frames.Load())
	if frames > 0 {
		m["wire.bytes_per_frame"] = float64(tr.frameBytes.Load()) / frames
	}
	m["wire.frames_per_op"] = frames / ops
	m["transport.queued_bytes_max"] = float64(tr.queuedMax.Load())
	m["replica.window_flips_per_kop"] = 1e3 * (pass.counter("mobirep_replica_allocations_total") +
		pass.counter("mobirep_replica_deallocations_total")) / ops

	// Tap histograms.
	up, down := tr.transit[0][1].snapshot(), tr.transit[0][0].snapshot()
	up.merge(tr.transit[1][1].snapshot())
	down.merge(tr.transit[1][0].snapshot())
	m["transport.uplink_us_p50"] = us(up.quantile(0.50))
	m["transport.uplink_us_p99"] = us(up.quantile(0.99))
	m["transport.downlink_us_p50"] = us(down.quantile(0.50))
	m["transport.downlink_us_p99"] = us(down.quantile(0.99))
	m["transport.send_call_ns_p50"] = tr.sendCall.snapshot().quantile(0.50)

	// Per-connection layer histograms.
	var all layerHists
	var misfits int64
	var reqs []request
	for _, ct := range inst.traces() {
		all.mergeHists(&ct.layerHists)
		misfits += ct.misfits
		reqs = append(reqs, ct.requests...)
	}
	m["replica.client_presend_us_p50"] = us(all.presend.quantile(0.50))
	m["replica.server_us_p50"] = us(all.server.quantile(0.50))
	m["replica.client_postrecv_us_p50"] = us(all.postrecv.quantile(0.50))
	m["replica.read_hit_ns_p50"] = all.readHit.quantile(0.50)
	m["replica.read_miss_us_p50"] = us(all.readMiss.quantile(0.50))
	m["replica.write_commit_us_p50"] = us(all.writeCommit.quantile(0.50))
	m["replica.fanout_us_p50"] = us(all.fanout.quantile(0.50))
	// The budget: do the five layer medians of a read miss add up to the
	// median read miss? Only where a connection owns both ends of its link.
	if miss := all.readMiss.quantile(0.50); miss > 0 && all.server.n > 0 {
		layers := all.presend.quantile(0.50) + all.uplink.quantile(0.50) + all.server.quantile(0.50) +
			all.downlink.quantile(0.50) + all.postrecv.quantile(0.50)
		m["budget.layers_over_e2e"] = layers / miss
	}

	inst.layers(m, pass)
	codecProbe(m, tr.captured(), o.sz.codecRepeats)
	obsProbe(m)

	baseRate := float64(base1.rec.ops()+base2.rec.ops()) / (base1.seconds + base2.seconds)
	tracedRate := ops / pass.seconds
	m["trace.overhead_pct"] = 100 * (baseRate - tracedRate) / baseRate
	m["trace.unmatched_events"] = float64(unmatched + misfits)
	out.detail["baseline_ops_per_s"] = baseRate
	out.detail["traced_ops_per_s"] = tracedRate
	out.detail["pass_seconds"] = pass.seconds

	path, err := writeTrace(o.outDir, w.name, o.seed, int64(rec.attempted), unmatched+misfits, reqs)
	if err != nil {
		return nil, err
	}
	out.detail["trace_file"] = path

	out.judge(rec, verr)
	if unmatched+misfits != 0 {
		out.correct = false
		out.notes = append(out.notes, fmt.Sprintf("trace: %d unmatched frames, %d operations whose frames do not fit their class", unmatched, misfits))
	}
	return out, nil
}
