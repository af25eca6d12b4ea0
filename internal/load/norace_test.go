//go:build !race

package load

const raceDetector = false
