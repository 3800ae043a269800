//go:build race

package sim_test

// raceEnabled reports that the race detector instruments this build.
const raceEnabled = true
