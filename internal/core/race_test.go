//go:build race

package core

// raceEnabled reports that the test binary runs under the race detector.
const raceEnabled = true
