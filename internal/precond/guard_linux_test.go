//go:build linux

package precond

import (
	"math"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns a copy of src in fresh memory between two PROT_NONE
// pages, starting right after the first (atEnd false) or ending right
// before the second (atEnd true): a read or a write one element past
// that end faults and kills the test binary.
func guarded[T any](t *testing.T, src []T, atEnd bool) []T {
	t.Helper()
	page, n := syscall.Getpagesize(), len(src)*int(unsafe.Sizeof(src[0]))
	size := max((n+page-1)/page*page, page)
	mem, err := syscall.Mmap(-1, 0, size+2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	for _, g := range [][]byte{mem[:page], mem[page+size:]} {
		if err := syscall.Mprotect(g, syscall.PROT_NONE); err != nil {
			t.Fatal(err)
		}
	}
	start := page
	if atEnd {
		start = page + size - n
	}
	v := unsafe.Slice((*T)(unsafe.Pointer(&mem[start])), len(src))
	copy(v, src)
	return v
}

// TestDiag3StaysInsideItsVectors: Apply on every shape of diagShapes,
// with the sweep kernel, r, dst and the factor's table each flush
// against an inaccessible page at its start and then at its end. The
// kernel's lanes start and end on other lines' rows and read the near
// and far neighbours and the table rows of four lines at once; a load
// or a store one element outside any of the three faults. The results
// keep the CSR path's bits.
func TestDiag3StaysInsideItsVectors(t *testing.T) {
	needSummary(t)
	if !sweepKernel {
		t.Skip("no sweep kernel on this machine")
	}
	for _, g := range diagShapes {
		a := g.a()
		p, ref := bothIC0(t, a)
		if p.Kernel() != "diag3" {
			t.Fatalf("%s: took the %s path", g.name, p.Kernel())
		}
		r0 := randomVec(a.Rows, 71)
		want := make([]float64, a.Rows)
		ref.Apply(want, r0)
		tab := p.d.tab
		for _, atEnd := range []bool{false, true} {
			r, dst := guarded(t, r0, atEnd), guarded(t, make([]float64, a.Rows), atEnd)
			p.d.tab = guarded(t, tab, atEnd)
			p.Apply(dst, r)
			for i := range dst {
				if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s, flush at the end %v: row %d is %v, the CSR path gives %v", g.name, atEnd, i, dst[i], want[i])
				}
			}
		}
		p.d.tab = tab
	}
}
