//go:build !amd64

package opt

func readRows(dp, next []float64, feasible []uint32, ibit uint32, remote, saving, local []float64) {
	readRowsGeneric(dp, next, feasible, ibit, remote, saving, local)
}

func foldRows(dp, g []float64, all, ibit uint32, cc []float64) {
	foldRowsGeneric(dp, g, all, ibit, cc)
}

func writeRows(g, next []float64, feasible, sizes []uint32, ibit uint32, w int, writeIn, writeOut []float64) {
	writeRowsGeneric(g, next, feasible, sizes, ibit, w, writeIn, writeOut)
}
