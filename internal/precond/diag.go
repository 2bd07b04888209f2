package precond

import (
	"fmt"
	"math"
	"slices"
)

// settleCap is the deepest clamp depth newDiag3 looks for.
const settleCap = 20

// coefs is a factor row: l̃ at (i, i−1), (i, i−nx), (i, i−s2) (zero where
// absent) and D⁻¹, as diag_amd64.s reads it.
type coefs struct{ sub, near, far, dinv float64 }

// diag3 is IC(0) of an nx×ny×nz grid operator whose strict lower
// triangle is the diagonals 1 < nx < s2 = nx·ny (s2 = n on a 5-point
// grid), the CSR factor's M = L̃·D·L̃ᵀ. A row depends only on which lower
// neighbours it has and their pivots, and on a constant stencil it
// settles: row (x, y, z) is, bit for bit, row (min(x,k), min(y,k),
// min(z,k)), k = 12 for the paper's operator. The factor is the table of
// those rows, each line's row k held three more times (tx = min(nx, k+4))
// for the kernel's staggered lanes; Ũ = L̃ᵀ is the table at i+1, i+nx,
// i+s2.
type diag3 struct {
	n, nx, ny, nz, s2, k int
	tx, ty               int // table extents in x and y
	tab                  []coefs
}

// newDiag3 factors the grid operator a stencil summary declares
// (sparse.CSR.Stencil; its masks are its grid's), or returns nil: the
// strict lower triangle must be the diagonals 1, nx and at most s2, none
// the sum of two (2 = 1+1, s2 = 1+nx, s2 = nx+nx), which is exactly when
// NewIC0's inner sums Σ l_ij·l_kj are empty and what is left is the
// arithmetic below, in its order. It factors the corner box of extents
// min(n_d, maxK+2) and keeps the least k ≤ maxK at which each row of the
// box's first min(n_d, k+2) is the row at its clamped coordinates: then,
// by induction over the rows, so is every row of the grid.
func newDiag3(n int, off []int, coef []float64, maxK int) (*diag3, error) {
	c, ok := slices.BinarySearch(off, 0)
	if !ok || c < 2 || c > 3 || off[c-1] != -1 {
		return nil, nil
	}
	f := &diag3{n: n, nx: -off[c-2], s2: n}
	if c == 3 {
		f.s2 = -off[0]
	}
	if f.nx == 2 || f.s2 == f.nx+1 || f.s2 == 2*f.nx || f.s2%f.nx != 0 || n%f.s2 != 0 {
		return nil, nil
	}
	f.ny, f.nz = f.s2/f.nx, n/f.s2
	bx, by, bz := min(f.nx, maxK+2), min(f.ny, maxK+2), min(f.nz, maxK+2)
	box := make([]coefs, bx*by*bz) // dinv holds l_kk until the table
	// entry takes a lower entry a_ik of the current row: it returns l̃_ik
	// and takes l_ik² out of the row's pivot d.
	var d float64
	entry := func(a float64, k int) float64 {
		l := a / box[k].dinv
		d -= l * l
		return l / box[k].dinv
	}
	i := 0
	for z := range bz {
		for y := range by {
			for x := range bx {
				e := &box[i]
				d = coef[c]
				if z > 0 {
					e.far = entry(coef[0], i-bx*by)
				}
				if y > 0 {
					e.near = entry(coef[c-2], i-bx)
				}
				if x > 0 {
					e.sub = entry(coef[c-1], i-1)
				}
				if !(d > 0) {
					return nil, fmt.Errorf("precond: IC(0) pivot %d non-positive (%g); matrix not SPD enough", (z*f.ny+y)*f.nx+x, d)
				}
				e.dinv = math.Sqrt(d)
				i++
			}
		}
	}
	at := func(x, y, z int) coefs { return box[(z*by+y)*bx+x] }
next:
	for k := 1; k <= maxK; k++ {
		for z := range min(bz, k+2) {
			for y := range min(by, k+2) {
				for x := range min(bx, k+2) {
					if at(x, y, z) != at(min(x, k), min(y, k), min(z, k)) { // no entry is NaN or −0
						continue next
					}
				}
			}
		}
		f.k, f.tx, f.ty = k, min(f.nx, k+4), min(f.ny, k+1)
		f.tab = make([]coefs, f.tx*f.ty*min(f.nz, k+1))
		for j := range f.tab {
			f.tab[j] = at(min(j%f.tx, k), j/f.tx%f.ty, j/(f.tx*f.ty))
			f.tab[j].dinv = 1 / (f.tab[j].dinv * f.tab[j].dinv)
		}
		return f, nil
	}
	return nil, nil
}

// line returns the table rows of grid line (y, z), indexed by min(x, k).
func (f *diag3) line(y, z int) []coefs {
	o := (min(z, f.k)*f.ty + min(y, f.k)) * f.tx
	return f.tab[o : o+f.tx]
}

// upper returns the table lines at i+nx (past a plane's last line, the
// next plane's first) and i+s2 of line (y, z), nil where none.
func (f *diag3) upper(y, z int) (tn, tf []coefs) {
	if z+1 < f.nz {
		tn, tf = f.line(0, z+1), f.line(y, z+1)
	}
	if y+1 < f.ny {
		tn = f.line(y+1, z)
	}
	return tn, tf
}

// solve computes dst ← L̃⁻ᵀ·D⁻¹·L̃⁻¹·r (dst and r must not alias) in
// factor.solve's order: forward far, near, sub; backward ·dinv, near,
// far, sup. With sweepKernel a plane's lines go four at a time through
// fwdLanes and bwdLanes, but for the first plane forward and the last
// backward; all other lines go through fwd and bwd. Where the CSR kernel
// skips an absent entry this one subtracts 0·dst[j] (wherever dst[i±s]
// exists), and the kernel, whose lanes run one row apart, subtracts
// 0·(+0) for the line-end term 0·dst[i∓1] of a block's lines 1…3. For
// finite r all agree bit for bit but for the sign of a zero (−0 − (−0)
// = +0); a non-finite r gives a non-finite dst from each, not always in
// the same rows (0·Inf is NaN).
func (f *diag3) solve(dst, r []float64) {
	dst, r = dst[:f.n], r[:f.n]
	k, blocks := f.k, sweepKernel && f.nx >= f.k+4
	for z := range f.nz {
		y := 0
		for ; blocks && z > 0 && y+4 <= f.ny; y += 4 {
			var t [4]*coefs
			for l := range t {
				t[l] = &f.line(y+l, z)[0]
			}
			i := (z*f.ny + y) * f.nx
			fwdLanes(&dst[i], &r[i], &t, f.nx, f.s2, k, f.nx-k-3)
		}
		for ; y < f.ny; y++ {
			f.fwd(dst, r, y, z)
		}
	}
	for z := f.nz - 1; z >= 0; z-- {
		y := f.ny - 1
		for ; blocks && z < f.nz-1 && y >= f.ny&^3; y-- {
			f.bwd(dst, y, z)
		}
		for ; blocks && z < f.nz-1 && y >= 3; y -= 4 {
			var t [6]*coefs // lane l's line at row k−1+l; lane 0's upper lines
			for l := range 4 {
				t[l] = &f.line(y-l, z)[k-1+l]
			}
			tn, tf := f.upper(y, z)
			t[4], t[5] = &tn[k-1], &tf[k-1]
			i := (z*f.ny+y)*f.nx + f.nx - 1
			bwdLanes(&dst[i], &t, f.nx, f.s2, f.nx-k-4, k)
		}
		for ; y >= 0; y-- {
			f.bwd(dst, y, z)
		}
	}
}

// fwd is the forward sweep over line (y, z).
func (f *diag3) fwd(dst, r []float64, y, z int) {
	t, k, o, s1, s2 := f.line(y, z), f.k, (z*f.ny+y)*f.nx, f.nx, f.s2
	prev := 0.0
	if o > 0 {
		prev = dst[o-1]
	}
	for x := range f.nx {
		c, i := &t[min(x, k)], o+x
		s := r[i]
		if z > 0 {
			s -= c.far * dst[i-s2]
		}
		if i >= s1 {
			s -= c.near * dst[i-s1]
		}
		s -= c.sub * prev
		dst[i], prev = s, s
	}
}

// bwd is the backward sweep over line (y, z), last row first.
func (f *diag3) bwd(dst []float64, y, z int) {
	t, k, o, s1, s2 := f.line(y, z), f.k, (z*f.ny+y)*f.nx, f.nx, f.s2
	tn, tf := f.upper(y, z)
	prev, sub := 0.0, 0.0
	if o+f.nx < f.n {
		prev = dst[o+f.nx]
	}
	for x := f.nx - 1; x >= 0; x-- {
		cx, i := min(x, k), o+x
		s := dst[i] * t[cx].dinv
		if tn != nil {
			s -= tn[cx].near * dst[i+s1]
		}
		if tf != nil {
			s -= tf[cx].far * dst[i+s2]
		}
		s -= sub * prev
		dst[i], prev, sub = s, s, t[cx].sub
	}
}
