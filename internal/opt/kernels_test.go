package opt

import (
	"math"
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

// The row kernels against their Generic twins, bit for bit, at every length
// 0–70 (so every tail parity, and rows of one and two models), out of
// values the DP produces. Every row sits in a backing array one float
// longer, whose last float is a quiet NaN whose payload no other row
// carries: a kernel that touched a float past len(dst) would leave a
// different value there, or another row's NaN. foldRow runs in place on
// two rows of one backing array, as foldWrite runs it. On a platform
// without assembly kernels this compares the forwards with themselves.
func TestRowKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	sentinel := uint64(0x7ff8_0000_0000_0000)
	// row returns n drawn floats followed by the next sentinel.
	row := func(n int) []float64 {
		r := make([]float64, n+1)
		for j := range r[:n] {
			r[j] = rowValue(rng)
		}
		sentinel++
		r[n] = math.Float64frombits(sentinel)
		return r[:n]
	}
	differ := func(got, want []float64) bool {
		got, want = got[:len(got)+1], want[:len(want)+1]
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				return true
			}
		}
		return false
	}
	kernels := []struct {
		name            string
		kernel, generic func(dst, a, b, c, d []float64)
	}{
		{"addRow", func(dst, a, b, _, _ []float64) { addRow(dst, a, b) },
			func(dst, a, b, _, _ []float64) { addRowGeneric(dst, a, b) }},
		{"addMinRow", addMinRow, addMinRowGeneric},
		{"minRow", func(dst, a, b, _, _ []float64) { minRow(dst, a, b) },
			func(dst, a, b, _, _ []float64) { minRowGeneric(dst, a, b) }},
	}
	for n := 0; n <= 70; n++ {
		for rep := 0; rep < 8; rep++ {
			a, b, c, d := row(n), row(n), row(n), row(n)
			for _, k := range kernels {
				got := row(n)
				want := slices.Clone(got[:n+1])[:n]
				k.generic(want, a, b, c, d)
				k.kernel(got, a, b, c, d)
				if differ(got, want) {
					t.Fatalf("%s, %d models: %v\nGeneric: %v\noperands: %v %v %v %v",
						k.name, n, got[:n+1], want[:n+1], a, b, c, d)
				}
			}

			// ga and gb are two rows of one array, each followed by its
			// own sentinel.
			g := slices.Concat(row(n)[:n+1], row(n)[:n+1])
			ga, gb := g[:n], g[n+1:2*n+1]
			want := slices.Clone(g)
			foldRowGeneric(want[:n], want[n+1:2*n+1], c)
			foldRow(ga, gb, c)
			if differ(g[:2*n+1], want[:2*n+1]) {
				t.Fatalf("foldRow, %d models: %v\nGeneric: %v\ncc: %v", n, g, want, c)
			}
		}
	}
}
