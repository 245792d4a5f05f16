//go:build race

package core

// raceEnabled skips the allocation pins: under the race detector sync.Pool
// drops Puts at random, so pooled paths allocate.
const raceEnabled = true
