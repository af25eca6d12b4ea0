//go:build race

package sim

// raceEnabled: under the race detector every load is instrumented, so
// pins on replay speed cannot hold.
const raceEnabled = true
