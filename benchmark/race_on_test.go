//go:build race

package main

// raceEnabled reports whether the race detector is compiled in. Its
// slowdown turns 1 s op deadlines into failed ops (the smoke test takes
// minutes instead of seconds), so the test skips itself under it.
const raceEnabled = true
