package main

import "time"

// Every size the benchmark uses is a constant in this file. Nothing is
// read from the environment; the command line selects only the workload,
// the seed, the run length and whether the pass is traced.

// Load shape shared by the network workloads.
const (
	// serverShards pins the shard count of every replica server, so the
	// shard arithmetic does not follow GOMAXPROCS.
	serverShards = 2
	// clientConns is the closed-loop client connection count: one
	// goroutine with one operation outstanding. The network workloads run
	// on one CPU (see confine), where a second connection would only queue
	// behind the first.
	clientConns = 1
	// readTimeout is Client.Timeout, the mobirep-client default.
	readTimeout = 2 * time.Second
	// outboxBytes and writeTimeout are the mobirep-server defaults for
	// accepted links (-outbox-bytes, -write-timeout).
	outboxBytes  = 1 << 20
	writeTimeout = 10 * time.Second

	// warmupE2E is discarded before the timed pass, warmupTraced before
	// each half of a traced run.
	warmupE2E    = 2 * time.Second
	warmupTraced = time.Second
	// setupReps is how often set-up is repeated at least to report a
	// median; a set-up short enough is repeated until setupBudget is spent,
	// at most setupMaxFactor times as often.
	setupReps      = 5
	setupBudget    = time.Second
	setupMaxFactor = 10
	// passSlices is how many equal slices a pass is cut into; timings and
	// throughput are taken per slice and then reduced (see sliceStats).
	passSlices = 30
	// baselineShare is the part of a traced run's seconds spent on an
	// untapped instance, to measure what tracing costs.
	baselineShare = 0.25
	// quiesceTimeout bounds the wait for in-flight propagation before
	// the end-state checks.
	quiesceTimeout = 5 * time.Second

	// traceSpansPerConn caps the requests per connection whose spans are
	// written to the trace file; aggregates cover every request.
	traceSpansPerConn = 2048
	// captureFrames caps the frames kept for the codec replay.
	captureFrames = 4096
	// tapRing is the in-flight frame capacity of one link direction.
	tapRing = 1024
)

// sizes holds the per-workload input sizes. defaultSizes is what the
// benchmark runs; the self-test shrinks a copy so every workload fits in
// a fraction of a second.
type sizes struct {
	// pair_read_miss
	missKeys  int
	missValue int

	// pair_sw_drift
	swK        int // window size (mode SWk)
	swKeys     int // keys per connection
	swValue    int
	swPeriod   int // ops per theta period
	swHotKeys  int // keys a period draws from
	swStrata   int // consecutive periods that together cover [0, 1] in theta
	swSchedule int // pre-generated ops per connection (wraps)

	// pair_write_fanout
	fanKeys    int
	fanValue   int
	fanMemSubs int // K subscriber MCs on in-memory links

	// tree7_roam
	treeStations int
	treeK        int // SWk on every edge and as placement
	treeKeys     int
	treeValue    int
	treeWritePct int
	treeHotKeys  int // keys per MC that draw treeHotPct of its requests
	treeHotPct   int
	treeHandoff  int // ops between handoffs

	// sim_replay
	simOps      int // requests per schedule
	simChunk    int // requests per replay task
	simDriftOps int // ops per theta period of the drifting schedules

	// probes (traced runs only)
	probePuts    int
	probeGets    int
	codecRepeats int
}

var defaultSizes = sizes{
	missKeys: 4096, missValue: 128,

	swK: 9, swKeys: 8192, swValue: 128, swPeriod: 4096, swHotKeys: 64, swStrata: 16, swSchedule: 1 << 21,

	fanKeys: 256, fanValue: 1024, fanMemSubs: 64,

	treeStations: 7, treeK: 5, treeKeys: 2048, treeValue: 128, treeWritePct: 20, treeHotKeys: 64, treeHotPct: 80, treeHandoff: 500,

	simOps: 1 << 22, simChunk: 1 << 18, simDriftOps: 4096,

	probePuts: 4000, probeGets: 1 << 16, codecRepeats: 64,
}

// omega is the control/data cost ratio of the paper's message model used
// for cost_per_op.
const omega = 0.5

// workloadDef names one workload and why it exists.
type workloadDef struct {
	name string
	why  string
}

var workloadDefs = []workloadDef{
	{"pair_read_miss", "ST1, 128 B values: every read is one request up and one response down, so per-frame cost in wire, transport and shard dispatch is the whole latency; window, cache, log and fan-out are bypassed"},
	{"pair_sw_drift", "SW9 under drifting theta: windows flip both ways, hits bypass the transport, and reads share the replica layer with writes, so window state, cache and ownership transfer carry the cost"},
	{"pair_write_fanout", "ST2, durable group-commit store, 64+C subscribers holding every key: log, key index, shared encode and the outbox sweep do the work; the read path does none"},
	{"tree7_roam", "binary tree of 7 stations, every edge loopback TCP: the only workload where a miss repeats per edge and relay read-through, placement and warm-resync handoff run"},
	{"sim_replay", "no network: seeded schedules replayed through the policies under both cost models plus the offline optimum; the window kernel dominates, so it is the bypass for every network optimisation"},
}

// metricDef is one row of the catalogue. BENCHMARK.json repeats the
// rows; the self-test checks the two agree.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd is printed with --trace 0, for every workload. op_* is the
// latency of the workload's primary operation: Client.Read on
// pair_read_miss, pair_sw_drift and tree7_roam; Server.Write entry until
// the writer's own MC applied the version on pair_write_fanout; one
// replay task (simChunk requests through one policy) on sim_replay.
//
// Every timing carries the widest bound the driver allows. The host this
// was sized on changes speed in steps that last seconds to minutes (an
// unchanged binary's pair_write_fanout moves between 9 and 13.6 k writes/s
// over three quarters of an hour); ten runs of a network workload spread
// by 2 to 14 %, so nothing narrower would hold. See the A/A table in
// README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_mean_us", "us", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p95_us", "us", "lower", 0.25},
	{"cost_per_op", "count", "lower", 0.02},
	{"allocs_per_op", "count", "lower", 0.05},
	{"heap_mb", "MB", "lower", 0.20},
}

// perLayer is printed with --trace 1, for every workload; a layer the
// workload bypasses reads 0.
var perLayer = []metricDef{
	// Secondary end-to-end timings, taken by the harness clock during
	// the traced pass because they do not exist on every workload.
	{"e2e.read_mean_us", "us", "lower", 0},
	{"e2e.read_p50_us", "us", "lower", 0},
	{"e2e.read_p99_us", "us", "lower", 0},
	{"e2e.write_p50_us", "us", "lower", 0},
	{"e2e.write_visible_p50_us", "us", "lower", 0},
	{"e2e.write_visible_p99_us", "us", "lower", 0},
	{"e2e.handoff_p50_us", "us", "lower", 0},
	{"e2e.wire_bytes_per_op", "B", "lower", 0},

	{"wire.encode_ns_per_frame", "ns", "lower", 0},
	{"wire.decode_ns_per_frame", "ns", "lower", 0},
	{"wire.bytes_per_frame", "B", "lower", 0},
	{"wire.frames_per_op", "count", "lower", 0},

	{"transport.uplink_us_p50", "us", "lower", 0},
	{"transport.uplink_us_p99", "us", "lower", 0},
	{"transport.downlink_us_p50", "us", "lower", 0},
	{"transport.downlink_us_p99", "us", "lower", 0},
	{"transport.send_call_ns_p50", "ns", "lower", 0},
	{"transport.frames_per_writev", "count", "higher", 0},
	{"transport.writev_per_op", "count", "lower", 0},
	{"transport.queued_bytes_max", "B", "lower", 0},

	{"replica.client_presend_us_p50", "us", "lower", 0},
	{"replica.server_us_p50", "us", "lower", 0},
	{"replica.client_postrecv_us_p50", "us", "lower", 0},
	{"replica.read_hit_ns_p50", "ns", "lower", 0},
	{"replica.read_miss_us_p50", "us", "lower", 0},
	{"replica.write_commit_us_p50", "us", "lower", 0},
	{"replica.fanout_us_p50", "us", "lower", 0},
	{"replica.fanout_ns_per_subscriber", "ns", "lower", 0},
	{"replica.window_flips_per_kop", "count", "lower", 0},
	{"replica.data_msgs_per_op", "count", "lower", 0},
	{"replica.control_msgs_per_op", "count", "lower", 0},
	{"replica.connections_per_op", "count", "lower", 0},
	{"replica.heap_bytes_per_session_key", "B", "lower", 0},

	{"core.sw_apply_ns", "ns", "lower", 0},
	{"mobile.hit_ratio", "ratio", "higher", 0},
	{"mobile.installs_per_kop", "count", "lower", 0},
	{"mobile.drops_per_kop", "count", "lower", 0},

	{"db.put_us_p50", "us", "lower", 0},
	{"db.put_us_p99", "us", "lower", 0},
	{"db.get_ns_p50", "ns", "lower", 0},
	{"db.fsyncs_per_write", "count", "lower", 0},
	{"db.records_per_group_commit", "count", "higher", 0},
	{"db.log_bytes_per_user_byte", "ratio", "lower", 0},
	{"db.put_us_p50_disk", "us", "lower", 0},

	{"tree.relay_up_us_p50", "us", "lower", 0},
	{"tree.relay_down_us_p50", "us", "lower", 0},
	{"tree.root_server_us_p50", "us", "lower", 0},
	{"tree.upstream_fetches_per_miss", "count", "lower", 0},
	{"tree.placement_drops_per_kop", "count", "lower", 0},
	{"tree.handoff_warm_ratio", "ratio", "higher", 0},
	{"tree.handoff_p95_us", "us", "lower", 0},
	{"tree.msgs_per_op_by_depth_1", "count", "lower", 0},
	{"tree.msgs_per_op_by_depth_2", "count", "lower", 0},
	{"tree.msgs_per_op_by_depth_3", "count", "lower", 0},

	{"sim.ns_per_step_static", "ns", "lower", 0},
	{"sim.ns_per_step_sw", "ns", "lower", 0},
	{"sim.ns_per_step_threshold", "ns", "lower", 0},
	{"offline.opt_ns_per_req", "ns", "lower", 0},
	{"workload.gen_ns_per_req", "ns", "lower", 0},
	{"sim.fan_efficiency", "ratio", "higher", 0},

	{"obs.counter_inc_ns", "ns", "lower", 0},
	{"obs.snapshot_us", "us", "lower", 0},

	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.unmatched_events", "count", "lower", 0},
	{"budget.layers_over_e2e", "ratio", "lower", 0},
}
