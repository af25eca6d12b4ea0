//go:build race

package tree

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts on purpose, so pins on pooled paths cannot hold.
const raceEnabled = true
