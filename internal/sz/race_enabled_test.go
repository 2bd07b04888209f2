//go:build race

package sz

// raceEnabled reports that this binary was built with the race
// detector, under which sync.Pool drops items at random; the
// allocation assertion is skipped under it.
const raceEnabled = true
