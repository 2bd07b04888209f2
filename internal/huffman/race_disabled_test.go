//go:build !race

package huffman

// raceEnabled: see race_enabled_test.go.
const raceEnabled = false
