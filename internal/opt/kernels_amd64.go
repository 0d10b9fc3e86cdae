package opt

// Implemented in kernels_amd64.s; each does what its Generic twin in
// kernels.go does, two models per SSE2 instruction. MINPD returns the bits
// min does except on NaN and on a ±0 pair, and a DP value is never either.

//go:noescape
func addRow(dst, a, b []float64)

//go:noescape
func addMinRow(dst, a, b, c, d []float64)

//go:noescape
func minRow(dst, a, b []float64)

//go:noescape
func foldRow(ga, gb, cc []float64)
