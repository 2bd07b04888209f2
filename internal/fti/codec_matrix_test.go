package fti

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/codec"
	"repro/internal/sz"
)

// This file holds the cross-codec identity matrix: every codec ×
// container layout {one block, 3 blocks, 8 blocks} × writer
// {sync, async} × storage {monolithic, 4-shard} must round-trip
// through the restore walk without targets, through it with targets
// (in place), and through the reassemble-then-decode reference
// (whole-blob DecodeInto) — with bitwise identical reconstructions.
// Lossless codecs must reproduce the input exactly, in every layout;
// lossy codecs must hold their error bound.

// matrixLayouts names the three container layouts and, per codec, the
// block-size knob that produces them for the 12,800-element vector
// used by the matrix.
var matrixLayouts = []string{"blocked-1", "blocked-3", "blocked-8"}

const matrixN = 12_800

// matrixCase builds the encoder for one (codec, layout) cell.
// Block sizes: 4288 and 1600 split 12,800 elements into 3 and 8
// blocks; 16384 ≥ 12,800 keeps the vector in one block.
type matrixCase struct {
	codec string
	// identicalAcrossLayouts: reconstruction must match bitwise
	// between one block and many (lossless codecs). SZ's predictor
	// restarts at block boundaries, so only the error bound carries
	// across layouts.
	identicalAcrossLayouts bool
	// check verifies the reconstruction against the original.
	check func(t *testing.T, label string, x, dec []float64)
	enc   func(layout string) Encoder
}

func matrixBlockElems(layout string) int {
	switch layout {
	case "blocked-3":
		return 4288
	case "blocked-8":
		return 1600
	default:
		return 16384
	}
}

func exactCheck(t *testing.T, label string, x, dec []float64) {
	t.Helper()
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(dec[i]) {
			t.Fatalf("%s: lossless codec changed element %d: %g != %g", label, i, dec[i], x[i])
		}
	}
}

func matrixCases() []matrixCase {
	return []matrixCase{
		{
			codec:                  "sz",
			identicalAcrossLayouts: false,
			check: func(t *testing.T, label string, x, dec []float64) {
				t.Helper()
				const eb = 1e-4
				for i := range x {
					if d := math.Abs(x[i] - dec[i]); d > eb*math.Abs(x[i])*(1+1e-10) {
						t.Fatalf("%s: PWRel bound broken at %d: |%g-%g| = %g", label, i, x[i], dec[i], d)
					}
				}
			},
			enc: func(layout string) Encoder {
				return SZ{Params: sz.Params{Mode: sz.PWRel, ErrorBound: 1e-4, BlockSize: matrixBlockElems(layout)}}
			},
		},
		{
			codec:                  "flate",
			identicalAcrossLayouts: true,
			check:                  exactCheck,
			enc: func(layout string) Encoder {
				return Lossless{Codec: codec.BlockedFlate{BlockElems: matrixBlockElems(layout)}}
			},
		},
	}
}

// TestCodecIdentityMatrix drives the full matrix. For each (codec,
// layout) the reconstruction from the first (sync, monolithic) variant
// is the reference; every other variant and every restore path must
// reproduce it bitwise.
func TestCodecIdentityMatrix(t *testing.T) {
	big := streamState(matrixN, 21)
	small := streamState(300, 22)
	for _, mc := range matrixCases() {
		var layoutRef []float64 // reference across layouts (when identical)
		for _, layout := range matrixLayouts {
			enc := mc.enc(layout)

			// The layout knob must actually select the block count, and
			// every layout is a container.
			blob, err := enc.Encode(nil, big)
			if err != nil {
				t.Fatalf("%s/%s: encode: %v", mc.codec, layout, err)
			}
			ranges, ok := codec.BlockRanges(blob)
			if want := (matrixN + matrixBlockElems(layout) - 1) / matrixBlockElems(layout); !ok || len(ranges) != want {
				t.Fatalf("%s/%s: %d blocks (container: %v), want %d", mc.codec, layout, len(ranges), ok, want)
			}

			var cellRef []float64 // reference across variants of this cell
			for _, shards := range []int{1, 4} {
				for _, async := range []bool{false, true} {
					label := fmt.Sprintf("%s/%s/shards=%d/async=%v", mc.codec, layout, shards, async)
					st := NewMemStorage()
					c := New(st, enc)
					if err := c.SetSharding(shards, 2); err != nil {
						t.Fatal(err)
					}
					snap := streamSnap(7, big, small)
					if async {
						ac := NewAsync(c)
						if _, err := ac.SaveAsync(snap); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if err := ac.Flush(); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
					} else if _, err := c.Save(snap); err != nil {
						t.Fatalf("%s: %v", label, err)
					}

					// Path 1: the restore walk, block by block.
					streaming, _, err := c.Restore(nil)
					if err != nil {
						t.Fatalf("%s: streaming restore: %v", label, err)
					}
					// Path 2: the reassembled whole-blob reference.
					legacy, err := c.RestoreReassembled()
					if err != nil {
						t.Fatalf("%s: reassembled restore: %v", label, err)
					}
					snapshotsBitwiseEqual(t, label+" streaming-vs-reassembled", streaming, legacy)
					// Path 3: the walk again, in place via restore targets.
					targets := map[string][]float64{
						"x": make([]float64, len(big)),
						"p": make([]float64, len(small)),
					}
					inPlace, _, err := c.Restore(targets)
					if err != nil {
						t.Fatalf("%s: in-place restore: %v", label, err)
					}
					snapshotsBitwiseEqual(t, label+" streaming-vs-inplace", streaming, inPlace)
					if &targets["x"][0] != &inPlace.Vectors["x"][0] {
						t.Fatalf("%s: Restore did not decode into the provided target", label)
					}

					dec := streaming.Vectors["x"]
					mc.check(t, label, big, dec)
					mc.check(t, label+"/small", small, streaming.Vectors["p"])
					if cellRef == nil {
						cellRef = dec
					} else {
						for i := range cellRef {
							if math.Float64bits(cellRef[i]) != math.Float64bits(dec[i]) {
								t.Fatalf("%s: reconstruction differs from the cell's sync/monolithic reference at %d", label, i)
							}
						}
					}
				}
			}
			if mc.identicalAcrossLayouts {
				if layoutRef == nil {
					layoutRef = cellRef
				} else {
					for i := range layoutRef {
						if math.Float64bits(layoutRef[i]) != math.Float64bits(cellRef[i]) {
							t.Fatalf("%s/%s: reconstruction differs from the one-block layout's at %d", mc.codec, layout, i)
						}
					}
				}
			}
		}
	}
}
