package tree

// Observability for the replica-tree layer: one registration per series
// at package init, pre-resolved handles on the hot paths, mirroring the
// discipline of internal/replica/metrics.go, which also holds the relay
// stations' mobirep_tree_* series.

import "mobirep/internal/obs"

var (
	obsReg = obs.Default()

	// Mobility.
	mHandoffs = obsReg.Counter("mobirep_tree_handoffs_total",
		"MC handoffs completed (detach at one station, warm reattach at another).")
	mHandoffsCold = obsReg.Counter("mobirep_tree_handoffs_cold_total",
		"MC handoffs that fell back to a cold reattach (fence or failed resync).")
)
