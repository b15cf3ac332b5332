//go:build race

package storage

// raceEnabled reports whether the test binary runs under the race
// detector, which allocates on its own and voids allocation gates.
const raceEnabled = true
