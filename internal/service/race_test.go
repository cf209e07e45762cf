//go:build race

package service

// raceEnabled reports a race-detector build, where sync.Pool drops items
// at random and allocation counts are not exact.
const raceEnabled = true
