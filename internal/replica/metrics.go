package replica

// Observability instrumentation for the replica protocol layer. All series
// register once at package init against the process-wide obs registry;
// the protocol hot paths then touch pre-resolved handles only — atomic
// adds, no map lookups, no allocations (see the zero-alloc test in
// internal/obs).
//
// The per-instance Meter keeps its exact paper-cost semantics (one meter
// per side per attachment, snapshot-diffed by experiments); each Meter
// add additionally mirrors into the per-side global series below, so
// /metrics shows process-wide protocol traffic without a second
// accounting path that could drift.

import (
	"mobirep/internal/obs"
)

var (
	obsReg = obs.Default()
	obsTr  = obs.DefaultTracer()

	// Per-side mirrors of the Meter counters.
	mcMirror = newMeterMirror("mc")
	scMirror = newMeterMirror("sc")

	// Client read outcomes.
	mReadLocal = obsReg.Counter(`mobirep_replica_reads_total{result="local"}`,
		"MC reads by outcome: local cache hit, remote round trip, flagged "+
			"stale serve, offline failure, timeout, or cancellation.")
	mReadRemote   = obsReg.Counter(`mobirep_replica_reads_total{result="remote"}`, "")
	mReadStale    = obsReg.Counter(`mobirep_replica_reads_total{result="stale"}`, "")
	mReadOffline  = obsReg.Counter(`mobirep_replica_reads_total{result="offline"}`, "")
	mReadTimeout  = obsReg.Counter(`mobirep_replica_reads_total{result="timeout"}`, "")
	mReadCanceled = obsReg.Counter(`mobirep_replica_reads_total{result="canceled"}`, "")

	// Copy allocation flips at the MC.
	mAllocs = obsReg.Counter("mobirep_replica_allocations_total",
		"Copies allocated at the MC (allocating read responses applied).")
	mDeallocs = obsReg.Counter("mobirep_replica_deallocations_total",
		"Copies deallocated at the MC (write-majority windows, SW1 delete "+
			"requests, resync-driven drops).")

	// SC sessions.
	gSessions = obsReg.Gauge("mobirep_replica_sessions",
		"Currently attached SC sessions.")
	mSessionsOpened = obsReg.Counter("mobirep_replica_sessions_opened_total",
		"Sessions ever attached.")
	mSessionsExpired = obsReg.Counter("mobirep_replica_sessions_expired_total",
		"Sessions reaped by the idle expirer.")

	// Overload protection (admission.go).
	mAttachRejectedFull = obsReg.Counter(`mobirep_replica_attach_rejected_total{reason="full"}`,
		"Attaches refused by admission control, by reason.")
	mAttachRejectedRate = obsReg.Counter(`mobirep_replica_attach_rejected_total{reason="rate"}`, "")
	mSessionsShed       = obsReg.Counter("mobirep_replica_sessions_shed_total",
		"Sessions evicted by the memory-watermark shedder or an explicit Evict.")
	mBusyReceived = obsReg.Counter("mobirep_replica_busy_received_total",
		"Busy frames received by clients (server refused an attach or shed the session).")

	// Warm resync outcomes. "immediate" is a resync with nothing held (the
	// client is online at once, no traffic); "sent" is a ResyncReq that
	// went out; "applied" is a ResyncResp folded into the cache.
	mResyncImmediate = obsReg.Counter(`mobirep_replica_resyncs_total{outcome="immediate"}`,
		"Warm resync attempts by outcome.")
	mResyncSent    = obsReg.Counter(`mobirep_replica_resyncs_total{outcome="sent"}`, "")
	mResyncApplied = obsReg.Counter(`mobirep_replica_resyncs_total{outcome="applied"}`, "")
	mResyncFenced  = obsReg.Counter(`mobirep_replica_resyncs_total{outcome="fenced"}`, "")

	// Epoch fencing (epoch.go): warm state dropped because the server's
	// store epoch changed under the client.
	mEpochFences = obsReg.Counter("mobirep_replica_epoch_fences_total",
		"Epoch fences: a client observed the server's store epoch change "+
			"(authority restarted) and dropped its warm state for a cold reattach.")

	mResyncNotModified = obsReg.Counter(`mobirep_replica_resync_entries_total{result="not-modified"}`,
		"Resync response entries by result: revalidated in place vs re-shipped payload.")
	mResyncReshipped = obsReg.Counter(`mobirep_replica_resync_entries_total{result="reshipped"}`, "")
	// A resync's first hop re-asserts each declared copy its allocation
	// gate allows and revokes the rest.
	mResyncKept = obsReg.Counter(`mobirep_replica_resync_keys_total{result="kept"}`,
		"Copies a warm resync declared, by what its first hop did: re-asserted vs revoked.")
	mResyncRevoked = obsReg.Counter(`mobirep_replica_resync_keys_total{result="revoked"}`, "")

	// Supervisor recovery loop.
	mSuspects = obsReg.Counter("mobirep_replica_suspects_total",
		"Link-death signals delivered to supervisors.")
	mDialOK = obsReg.Counter(`mobirep_replica_dial_attempts_total{outcome="ok"}`,
		"Supervisor redial attempts by outcome.")
	mDialError      = obsReg.Counter(`mobirep_replica_dial_attempts_total{outcome="dial-error"}`, "")
	mDialResyncFail = obsReg.Counter(`mobirep_replica_dial_attempts_total{outcome="resync-fail"}`, "")
	mReconnects     = obsReg.Counter("mobirep_replica_reconnects_total",
		"Recoveries that brought a client back online.")
	mHeartbeatMisses = obsReg.Counter("mobirep_replica_heartbeat_misses_total",
		"Probe intervals that saw no pong.")

	// Relay stations of a replica tree (relay.go): fetch outcomes, what
	// the parent face mirrors downward, and placement.
	mFetchLocal = obsReg.Counter(`mobirep_tree_fetches_total{result="local"}`,
		"Relay read-path fetches by outcome: served from the station's own "+
			"copy, resolved through the parent, or failed (offline/abandoned).")
	mFetchParent = obsReg.Counter(`mobirep_tree_fetches_total{result="parent"}`, "")
	mFetchFailed = obsReg.Counter(`mobirep_tree_fetches_total{result="failed"}`, "")
	mJointReads  = obsReg.Counter("mobirep_tree_upstream_joint_reads_total",
		"Joint reads (MultiReadReq frames) a relay's parent face sent for its "+
			"children's batches; each key's fetch still counts once above.")
	mApplies = obsReg.Counter("mobirep_tree_applies_total",
		"Parent-face values folded into a relay's mirror store and fanned "+
			"to its children (fresh versions only; duplicates are inert).")
	mInvalidations = obsReg.Counter("mobirep_tree_invalidations_total",
		"Child copies revoked by a relay cascade (parent-face drops, fences).")
	mFences = obsReg.Counter("mobirep_tree_fences_total",
		"Subtree invalidations triggered by an upstream epoch fence.")
	mPlacementDrops = obsReg.Counter("mobirep_tree_placement_drops_total",
		"Copies shed because the station's placement policy voted against them.")
)

// meterMirror holds the global per-side registry counters a Meter
// double-writes into.
type meterMirror struct {
	data, control, conns, bytes *obs.Counter
}

func newMeterMirror(side string) *meterMirror {
	help := ""
	if side == "mc" {
		help = "Protocol data messages sent, by side."
	}
	return &meterMirror{
		data: obsReg.Counter(`mobirep_replica_data_msgs_total{side="`+side+`"}`, help),
		control: obsReg.Counter(`mobirep_replica_control_msgs_total{side="`+side+`"}`,
			pick(side == "mc", "Protocol control messages sent, by side.")),
		conns: obsReg.Counter(`mobirep_replica_connections_total{side="`+side+`"}`,
			pick(side == "mc", "Connection-model connections initiated, by side.")),
		bytes: obsReg.Counter(`mobirep_replica_meter_bytes_total{side="`+side+`"}`,
			pick(side == "mc", "Protocol frame payload bytes sent, by side.")),
	}
}

func pick(b bool, s string) string {
	if b {
		return s
	}
	return ""
}
