//go:build mutants

package mutant

import "os"

// Name is the active mutant, read from DM_MUTANT at start-up.
var Name = os.Getenv("DM_MUTANT")
