//go:build linux

package sparse

import (
	"fmt"
	"slices"
	"syscall"
	"testing"
	"unsafe"
)

// guardedBytes returns n bytes of fresh memory between two PROT_NONE
// pages, starting right after the first (atEnd false) or ending right
// before the second (atEnd true): a read or a write one byte past that
// end faults and kills the test binary.
func guardedBytes(t *testing.T, n int, atEnd bool) []byte {
	t.Helper()
	page := syscall.Getpagesize()
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
	return mem[start : start+n : start+n]
}

func guardedFloats(t *testing.T, src []float64, atEnd bool) []float64 {
	v := unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(guardedBytes(t, 8*len(src), atEnd)))), len(src))
	copy(v, src)
	return v
}

// TestStencilStaysInsideItsVectors: MulVec, MulVecSub and JacobiSweep
// on every grid shape of this file and on 32³, with x, b, dst (the
// sweep's r), dinv and the summary's masks each flush against an
// inaccessible page at its start and then at its end. The kernel takes
// the boundary rows, whose absent neighbours lie outside x; a load it
// issues for one of them, unmasked, or a store or a mask read outside
// its range, faults. The results keep the reference's bits.
func TestStencilStaysInsideItsVectors(t *testing.T) {
	needAVX2(t)
	shapes := append(gridShapes(), gridShape{"Poisson3D(32)", func() *CSR { return Poisson3D(32) }, nil})
	for _, s := range shapes {
		a := s.gen()
		if a.st == nil {
			continue
		}
		x0, b0, r0, dinv0 := randomVector(a.Cols, 61), randomVector(a.Rows, 62), randomVector(a.Rows, 63), reciprocalDiag(a)
		want, wantSub := make([]float64, a.Rows), make([]float64, a.Rows)
		mulVecReference(a, want, x0)
		for i := range wantSub {
			wantSub[i] = b0[i] - want[i]
		}
		wantX, wantR := slices.Clone(x0), slices.Clone(r0)
		jacobiOracle(a, wantX, wantR, b0, dinv0)
		mask := a.st.mask
		for _, atEnd := range []bool{false, true} {
			name := fmt.Sprintf("%s, flush at the end: %v", s.name, atEnd)
			x, b := guardedFloats(t, x0, atEnd), guardedFloats(t, b0, atEnd)
			dst := guardedFloats(t, make([]float64, a.Rows), atEnd)
			m := unsafe.Slice((*uint16)(unsafe.Pointer(unsafe.SliceData(guardedBytes(t, 2*len(mask), atEnd)))), len(mask))
			copy(m, mask)
			a.st.mask = m
			a.MulVec(dst, x)
			if i := bitsDiffer(dst, want); i >= 0 {
				t.Errorf("%s: MulVec row %d = %v, reference %v", name, i, dst[i], want[i])
			}
			a.MulVecSub(dst, b, x)
			if i := bitsDiffer(dst, wantSub); i >= 0 {
				t.Errorf("%s: MulVecSub row %d = %v, reference %v", name, i, dst[i], wantSub[i])
			}
			copy(dst, r0)
			a.JacobiSweep(x, dst, b, guardedFloats(t, dinv0, atEnd))
			if i := max(bitsDiffer(x, wantX), bitsDiffer(dst, wantR)); i >= 0 {
				t.Errorf("%s: JacobiSweep row %d: x %v, r %v; oracle %v, %v", name, i, x[i], dst[i], wantX[i], wantR[i])
			}
			a.st.mask = mask
		}
	}
}
