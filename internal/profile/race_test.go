//go:build race

package profile_test

// raceEnabled reports a -race build: the race detector's sync.Pool drops
// items at random, so allocation counts vary from run to run.
const raceEnabled = true
