//go:build race

package ssjserve

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a quarter of what is put back, so pooled scratch is not always reused.
const raceEnabled = true
