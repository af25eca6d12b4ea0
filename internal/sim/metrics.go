package sim

// Observability instrumentation for the measurement engine. Recording is
// amortized: the Fan participants count claimed indices locally and fold
// them into the registry once per participant, and the replay engine
// records two counter adds and one histogram observation per replay call
// (never per block or per request), whichever entry point made it, so the
// block loops stay free of allocation and of instrumentation.

import (
	"time"

	"mobirep/internal/obs"
)

// replayKind labels a replay by the policy's block form; policies without
// one (EWMA, CacheInv, the even and adaptive windows) are generic.
type replayKind uint8

const (
	kindGeneric replayKind = iota
	kindSW
	kindST1
	kindST2
	kindT1
	kindT2
	numKinds
)

var kindNames = [numKinds]string{"generic", "sw", "st1", "st2", "t1", "t2"}

var (
	simReg = obs.Default()

	mFanCalls = simReg.Counter("mobirep_sim_fan_calls_total",
		"Fan invocations that ran with at least one helper.")
	mFanIndicesCaller = simReg.Counter(`mobirep_sim_fan_indices_total{participant="caller"}`,
		"Work indices executed, by which participant claimed them.")
	mFanIndicesHelper = simReg.Counter(`mobirep_sim_fan_indices_total{participant="helper"}`, "")
	mFanHelpers       = simReg.Counter("mobirep_sim_fan_helpers_total",
		"Pool workers actually enlisted by Fan calls (offers accepted).")
	gFanActive = simReg.Gauge("mobirep_sim_fan_active_participants",
		"Participants currently inside a Fan work loop.")

	mReplays   [numKinds]*obs.Counter
	mReplayOps [numKinds]*obs.Counter

	// Replay speed in nanoseconds per request, amortized over one replay
	// call: about 0.1-1 for a block-form policy on a materialized
	// schedule, 3-4 more on a drawn one, 10-25 for a generic policy.
	// obs.Histogram resolves each to 1/64 with no ladder.
	hReplayNsPerOp = simReg.Histogram("mobirep_sim_replay_ns_per_op",
		"Nanoseconds per replayed request, one observation per Replay call.")
)

func init() {
	for i, kind := range kindNames {
		help, opsHelp := "", ""
		if i == 0 {
			help = "Replay calls, by the policy's block form."
			opsHelp = "Priced requests replayed, by the policy's block form."
		}
		mReplays[i] = simReg.Counter(`mobirep_sim_replays_total{kind="`+kind+`"}`, help)
		mReplayOps[i] = simReg.Counter(`mobirep_sim_replay_ops_total{kind="`+kind+`"}`, opsHelp)
	}
}

// recordReplay accounts one finished replay call: n priced requests in
// elapsed wall time by a policy of the given kind.
func recordReplay(kind replayKind, n int, elapsed time.Duration) {
	mReplays[kind].Inc()
	if n <= 0 {
		return
	}
	mReplayOps[kind].Add(uint64(n))
	hReplayNsPerOp.Observe(float64(elapsed.Nanoseconds()) / float64(n))
}
