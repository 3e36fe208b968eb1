//go:build race

package thirstyflops

// raceEnabled reports whether the test binary runs under the race
// detector, which changes allocation counts (sync.Pool drops a random
// share of Puts) and so voids allocation pins.
const raceEnabled = true
