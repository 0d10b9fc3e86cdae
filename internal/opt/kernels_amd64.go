package opt

// Implemented in kernels_amd64.s; each does what its Generic twin in
// kernels.go does, two models per SSE2 instruction. MINPD returns the bits
// min does except on NaN and on a ±0 pair, and a DP value is never either.

//go:noescape
func readRows(dp, next []float64, feasible []uint32, ibit uint32, remote, saving, local []float64)

//go:noescape
func foldRows(dp, g []float64, all, ibit uint32, cc []float64)

//go:noescape
func writeRows(g, next []float64, feasible, sizes []uint32, ibit uint32, w int, writeIn, writeOut []float64)
