//go:build race

package exec

// raceEnabled reports a -race build, whose sync.Pool drops a random
// share of what it is given, so pooled scratch is made anew more often.
const raceEnabled = true
