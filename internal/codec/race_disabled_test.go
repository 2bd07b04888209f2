//go:build !race

package codec_test

// raceEnabled: see race_enabled_test.go.
const raceEnabled = false
