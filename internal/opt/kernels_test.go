package opt

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// rowValue draws from the domain of a DP value or a price: +0, +Inf,
// subnormals, large finite non-negatives, and often one of a few fixed
// values, so that equal pairs are common.
func rowValue(rng *rand.Rand) float64 {
	fixed := [...]float64{0, inf, 1, 0.25, math.SmallestNonzeroFloat64, 0x1p-1022, math.MaxFloat64}
	if rng.Intn(2) == 0 {
		return fixed[rng.Intn(len(fixed))]
	}
	return math.Ldexp(rng.Float64(), rng.Intn(2100)-1074)
}

// The relaxation kernels against their Generic twins, bit for bit, on
// every universe of n = 1–8 processors, every threshold t, every writer
// or reader bit and every even width 2–24, out of values the DP produces.
// Every array the kernels write is one row longer than the 2^n states, and
// that row and every row the kernel must not write — the infeasible masks
// of next for a read or a write, the masks without the writer in g for the
// fold — hold quiet NaNs whose payloads no other float carries: a kernel
// that wrote one would leave a value there, or another float's NaN. The
// rows of g a write must not read hold such NaNs too, and so does the
// price row of execution-set size 0, so reading one would put a NaN in a
// result. On a platform without assembly kernels this compares the
// forwards with themselves.
func TestRelaxationKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	sentinel := uint64(0x7ff8_0000_0000_0000)
	nan := func() float64 {
		sentinel++
		return math.Float64frombits(sentinel)
	}
	values := func(k int) []float64 {
		r := make([]float64, k)
		for j := range r {
			r[j] = rowValue(rng)
		}
		return r
	}
	// rows returns span floats and a row of w sentinels after them, with
	// the rows of the states keep rejects filled with sentinels too.
	rows := func(size, w int, keep func(y uint32) bool) []float64 {
		r := values((size + 1) * w)
		for y := range size + 1 {
			if y == size || !keep(uint32(y)) {
				for j := range w {
					r[y*w+j] = nan()
				}
			}
		}
		return r
	}
	same := func(got, want []float64) bool {
		return slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
	}
	for n := 1; n <= 8; n++ {
		size := 1 << n
		all := uint32(size - 1)
		sizes := make([]uint32, size)
		for y := range sizes {
			sizes[y] = uint32(bits.OnesCount32(uint32(y)))
		}
		for tAvail := 1; tAvail <= n; tAvail++ {
			var feasible []uint32
			for y := range all + 1 {
				if int(sizes[y]) >= tAvail {
					feasible = append(feasible, y)
				}
			}
			isFeasible := func(y uint32) bool { return int(sizes[y]) >= tAvail }
			for w := 2; w <= 24; w += 2 {
				span := size * w
				for i := range n {
					ibit := uint32(1) << i
					withWriter := func(y uint32) bool { return y&ibit != 0 }
					dp := values(span)
					remote, saving, local, cc := values(w), values(w), values(w), values(w)
					writeIn, writeOut := values((n+1)*w), values((n+1)*w)
					for j := range w {
						writeIn[j], writeOut[j] = nan(), nan()
					}

					got := rows(size, w, isFeasible)
					want := slices.Clone(got)
					readRowsGeneric(dp, want, feasible, ibit, remote, saving, local)
					readRows(dp, got[:span], feasible, ibit, remote, saving, local)
					if !same(got, want) {
						t.Fatalf("readRows, n = %d, t = %d, w = %d, reader %b: %v\nGeneric: %v", n, tAvail, w, ibit, got, want)
					}

					got = rows(size, w, func(uint32) bool { return false })
					want = slices.Clone(got)
					foldRowsGeneric(dp, want, all, ibit, cc)
					foldRows(dp, got[:span], all, ibit, cc)
					if !same(got, want) {
						t.Fatalf("foldRows, n = %d, w = %d, writer %b: %v\nGeneric: %v", n, w, ibit, got, want)
					}
					for y := range all + 1 {
						for j := range w {
							if written := !math.IsNaN(got[int(y)*w+j]); written != withWriter(y) {
								t.Fatalf("foldRows, n = %d, w = %d, writer %b: mask %b written %v", n, w, ibit, y, written)
							}
						}
					}

					g := rows(size, w, withWriter)
					got = rows(size, w, isFeasible)
					want = slices.Clone(got)
					writeRowsGeneric(g, want, feasible, sizes, ibit, w, writeIn, writeOut)
					writeRows(g, got[:span], feasible, sizes, ibit, w, writeIn, writeOut)
					if !same(got, want) {
						t.Fatalf("writeRows, n = %d, t = %d, w = %d, writer %b: %v\nGeneric: %v", n, tAvail, w, ibit, got, want)
					}
					for _, x := range feasible {
						if slices.ContainsFunc(got[int(x)*w:][:w], math.IsNaN) {
							t.Fatalf("writeRows, n = %d, t = %d, w = %d, writer %b: read an unwritten row for %b", n, tAvail, w, ibit, x)
						}
					}
				}
			}
		}
	}
}
