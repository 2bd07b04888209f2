//go:build race

package huffman

// raceEnabled reports that this binary was built with the race
// detector, under which sync.Pool drops items at random; the
// zero-allocation assertion is skipped under it.
const raceEnabled = true
