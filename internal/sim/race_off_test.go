//go:build !race

package sim

// raceEnabled: see race_on_test.go.
const raceEnabled = false
