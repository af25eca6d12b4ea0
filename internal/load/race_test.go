//go:build race

package load

// raceDetector reports a -race build. The detector multiplies the cost of
// a write's fan-out: with 128 to 200 holders every writer spends the whole
// drive inside Write, about 2 ms a write, so the writers' pace measures
// the detector, not starvation.
const raceDetector = true
