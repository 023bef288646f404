//go:build race

package main

// raceEnabled: the race detector slows instrumented code unevenly, so
// timing checks cannot hold under it.
const raceEnabled = true
