//go:build race

package server

// raceDetector reports whether the tests run under the race detector, whose
// sync.Pool drops a share of what is put back.
const raceDetector = true
