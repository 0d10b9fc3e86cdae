package opt

// The row kernels of the grid pass: each is the loop over models of one
// relaxation of costsPass, reading and writing exactly len(dst) floats.
// Callers reslice every argument to [:len(dst)], so bounds are checked
// before a kernel runs. On amd64 the kernels are SSE2 assembly
// (kernels_amd64.s), two models per instruction; these are their
// reference, and the kernels themselves elsewhere (kernels_other.go).

// addRowGeneric sets dst[j] = a[j] + b[j].
func addRowGeneric(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for j := range dst {
		dst[j] = a[j] + b[j]
	}
}

// addMinRowGeneric sets dst[j] = min(a[j]+b[j], c[j]+d[j]).
func addMinRowGeneric(dst, a, b, c, d []float64) {
	a, b, c, d = a[:len(dst)], b[:len(dst)], c[:len(dst)], d[:len(dst)]
	for j := range dst {
		dst[j] = min(a[j]+b[j], c[j]+d[j])
	}
}

// minRowGeneric sets dst[j] = min(a[j], b[j]).
func minRowGeneric(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for j, v := range a {
		dst[j] = min(v, b[j])
	}
}

// foldRowGeneric folds one bit of the write transform over a pair of rows,
// ga without the bit and gb with it (see minTransform).
func foldRowGeneric(ga, gb, cc []float64) {
	gb, cc = gb[:len(ga)], cc[:len(ga)]
	for j, ha := range ga {
		hb := gb[j]
		ga[j] = min(ha, hb+cc[j])
		gb[j] = min(hb, ha)
	}
}
