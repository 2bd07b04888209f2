// Command szcomp compresses and decompresses raw little-endian
// float64 files with the repository's error-bounded SZ compressor — the
// standalone equivalent of the sz command-line tool.
//
// Usage:
//
//	szcomp -c -in state.f64 -out state.sz -mode pwrel -eb 1e-4
//	szcomp -d -in state.sz  -out state.f64
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/sz"
)

func main() {
	compress := flag.Bool("c", false, "compress")
	decompress := flag.Bool("d", false, "decompress")
	in := flag.String("in", "", "input file")
	out := flag.String("out", "", "output file")
	mode := flag.String("mode", "pwrel", "bound mode: abs | rel | pwrel")
	eb := flag.Float64("eb", 1e-4, "error bound")
	flag.Parse()

	if *compress == *decompress {
		fmt.Fprintln(os.Stderr, "szcomp: exactly one of -c / -d is required")
		os.Exit(2)
	}
	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "szcomp: -in and -out are required")
		os.Exit(2)
	}
	if err := run(*compress, *in, *out, *mode, *eb); err != nil {
		fmt.Fprintln(os.Stderr, "szcomp:", err)
		os.Exit(1)
	}
}

func run(compress bool, in, out, mode string, eb float64) error {
	data, err := os.ReadFile(in)
	if err != nil {
		return err
	}
	if compress {
		if len(data)%8 != 0 {
			return fmt.Errorf("input length %d is not a multiple of 8 (raw float64 expected)", len(data))
		}
		x := make([]float64, len(data)/8)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		var m sz.Mode
		switch mode {
		case "abs":
			m = sz.Abs
		case "rel":
			m = sz.RelRange
		case "pwrel":
			m = sz.PWRel
		default:
			return fmt.Errorf("unknown mode %q", mode)
		}
		blob, err := sz.Compress(x, sz.Params{Mode: m, ErrorBound: eb})
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, blob, 0o644); err != nil {
			return err
		}
		fmt.Printf("%d values -> %d bytes (ratio %.2fx)\n",
			len(x), len(blob), float64(len(data))/float64(len(blob)))
		return nil
	}

	x, err := sz.Decompress(data)
	if err != nil {
		return err
	}
	raw := make([]byte, 8*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(v))
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("%d bytes -> %d values\n", len(data), len(x))
	return nil
}
