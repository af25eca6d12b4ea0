package main

import (
	"mobirep/internal/obs"
	"mobirep/internal/wire"
)

// Probes time one layer directly, outside the workload, after a traced
// pass. They run single-threaded on an otherwise idle process.

// codecProbe replays the workload's own captured frame mix through
// DecodeBorrowed and AppendEncode only (DecodeBatch and AppendEncodeBatch
// for batch frames) and reports the mean cost per frame.
func codecProbe(m metrics, frames [][]byte, repeats int) {
	if len(frames) == 0 {
		return
	}
	msgs := make([]wire.Message, len(frames))
	batches := make([]wire.Batch, len(frames))
	isBatch := make([]bool, len(frames))
	ok := 0

	t0 := nowNs()
	for r := 0; r < repeats; r++ {
		ok = 0
		for i, f := range frames {
			var err error
			if isBatch[i] = wire.IsBatchFrame(f); isBatch[i] {
				batches[i], err = wire.DecodeBatch(f)
			} else {
				msgs[i], err = wire.DecodeBorrowed(f)
			}
			if err == nil {
				ok++
			}
		}
	}
	t1 := nowNs()
	if ok != len(frames) {
		return // a captured frame that does not decode: leave the layer at 0
	}
	scratch := make([]byte, 0, 4096)
	for r := 0; r < repeats; r++ {
		for i := range frames {
			if isBatch[i] {
				scratch, _ = wire.AppendEncodeBatch(scratch[:0], batches[i])
			} else {
				scratch, _ = wire.AppendEncode(scratch[:0], msgs[i])
			}
		}
	}
	t2 := nowNs()
	n := float64(len(frames) * repeats)
	m["wire.decode_ns_per_frame"] = float64(t1-t0) / n
	m["wire.encode_ns_per_frame"] = float64(t2-t1) / n
}

// obsProbe times the instrumentation itself: one counter increment, on
// a private registry, and one snapshot of the live registry.
func obsProbe(m metrics) {
	c := obs.New().Counter("benchmark_probe_total", "")
	const incs = 1 << 20
	t0 := nowNs()
	for i := 0; i < incs; i++ {
		c.Inc()
	}
	t1 := nowNs()
	const snaps = 200
	for i := 0; i < snaps; i++ {
		_ = obs.Default().Snapshot()
	}
	t2 := nowNs()
	m["obs.counter_inc_ns"] = float64(t1-t0) / incs
	m["obs.snapshot_us"] = float64(t2-t1) / snaps / 1e3
}
