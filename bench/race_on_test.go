//go:build race

package main

// raceEnabled lets TestSmoke skip its wall-time limit under the race
// detector, which slows the encrypted inferences about tenfold.
const raceEnabled = true
