package workload

import (
	"mobirep/internal/sched"
	"mobirep/internal/stats"
)

// Bursty workloads. The paper's AVG measure models theta drifting slowly
// and uniformly; real mobile access is burstier — quiet monitoring
// punctuated by update storms (market opens, traffic incidents). The
// Markov-modulated generator captures that: requests are Bernoulli with a
// theta that jumps between two regimes according to a two-state Markov
// chain. The burst experiments measure how window size interacts with
// burst length.

// BurstyConfig parametrizes the two-regime generator.
type BurstyConfig struct {
	// ThetaA and ThetaB are the write probabilities in the two regimes.
	ThetaA, ThetaB float64
	// SwitchProb is the per-request probability of jumping to the other
	// regime; expected regime length is 1/SwitchProb requests.
	SwitchProb float64
}

// MeanTheta returns the long-run write probability: the chain is
// symmetric, so each regime carries weight 1/2.
func (c BurstyConfig) MeanTheta() float64 { return (c.ThetaA + c.ThetaB) / 2 }

// Bursty samples n requests from the Markov-modulated process, returning
// the schedule and the regime index (0 or 1) in force at each request.
func Bursty(rng *stats.RNG, cfg BurstyConfig, n int) (sched.Schedule, []uint8) {
	if cfg.ThetaA < 0 || cfg.ThetaA > 1 || cfg.ThetaB < 0 || cfg.ThetaB > 1 {
		panic("workload: bursty thetas outside [0,1]")
	}
	if cfg.SwitchProb <= 0 || cfg.SwitchProb > 1 {
		panic("workload: switch probability outside (0,1]")
	}
	s := make(sched.Schedule, n)
	regimes := make([]uint8, n)
	regime := uint8(0)
	theta := cfg.ThetaA
	for i := 0; i < n; i++ {
		if rng.Bernoulli(cfg.SwitchProb) {
			regime ^= 1
			if regime == 0 {
				theta = cfg.ThetaA
			} else {
				theta = cfg.ThetaB
			}
		}
		regimes[i] = regime
		// Selected, not branched to, as in FillBernoulli.
		op := sched.Read
		if rng.Bernoulli(theta) {
			op = sched.Write
		}
		s[i] = op
	}
	return s, regimes
}

// CorrelatedKeys models the access pattern the joint-read batching
// experiment needs: each "screen refresh" reads a fixed group of keys
// together (think: every instrument on a watch list), with occasional
// single-key reads mixed in. It returns, per step, the set of key indices
// read (nil means the step is a server write to a random key).
type CorrelatedStep struct {
	// ReadKeys holds the key indices read together; empty means a write.
	ReadKeys []int
	// WriteKey is the key written when ReadKeys is empty.
	WriteKey int
}

// CorrelatedWorkload samples n steps over keyCount keys: with probability
// 1-theta a refresh reads all keys in [0, groupSize), otherwise a write
// hits a uniformly random key.
func CorrelatedWorkload(rng *stats.RNG, keyCount, groupSize, n int, theta float64) []CorrelatedStep {
	if groupSize <= 0 || groupSize > keyCount {
		panic("workload: group size outside [1, keyCount]")
	}
	out := make([]CorrelatedStep, n)
	group := make([]int, groupSize)
	for i := range group {
		group[i] = i
	}
	for i := 0; i < n; i++ {
		if rng.Bernoulli(theta) {
			out[i] = CorrelatedStep{WriteKey: rng.Intn(keyCount)}
		} else {
			out[i] = CorrelatedStep{ReadKeys: group}
		}
	}
	return out
}
