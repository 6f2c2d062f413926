//go:build !mutants

// Package mutant names the deliberate bug a test build runs with. Code
// guards each committed mutant with `if mutant.Name == "<name>"`; in the
// default build Name is the constant "", so every guard folds away at
// compile time and the build is the unmutated program. Built with
// `-tags mutants`, Name is read from the DM_MUTANT environment variable,
// and `make mutants` requires each mutant's killer tests to fail.
package mutant

// Name is the active mutant: always "" outside the mutants build.
const Name = ""
