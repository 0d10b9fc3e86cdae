//go:build !amd64

package opt

func addRow(dst, a, b []float64)          { addRowGeneric(dst, a, b) }
func addMinRow(dst, a, b, c, d []float64) { addMinRowGeneric(dst, a, b, c, d) }
func minRow(dst, a, b []float64)          { minRowGeneric(dst, a, b) }
func foldRow(ga, gb, cc []float64)        { foldRowGeneric(ga, gb, cc) }
