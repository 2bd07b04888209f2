//go:build !race

package sz

// raceEnabled: see race_enabled_test.go.
const raceEnabled = false
