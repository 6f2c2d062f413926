//go:build race

package core

// raceEnabled reports a -race build, under which allocation counts vary
// from run to run.
const raceEnabled = true
