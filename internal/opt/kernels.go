package opt

// The relaxation kernels of the grid pass: each is one relaxation of
// costsPass, walking the DP states itself, over rows of w floats per state
// (w = rowWidth(models), even and at least 2, a price row's length). The
// rows hold 2^n states, all = 2^n - 1, and every mask in feasible is a
// state; costsPass builds all of that, and the kernels trust it. On amd64
// the kernels are SSE2 assembly (kernels_amd64.s), two models per
// instruction; these Go bodies are their reference, and the kernels
// themselves elsewhere (kernels_other.go).

// readRowsGeneric is relaxRead over [state][model] rows: for every
// feasible y, the row of y in next becomes dp[y] + remote when y lacks the
// reader ibit, and min(dp[y^ibit] + saving, dp[y] + local) when it has it.
func readRowsGeneric(dp, next []float64, feasible []uint32, ibit uint32, remote, saving, local []float64) {
	w := len(remote)
	saving, local = saving[:w], local[:w]
	for _, y := range feasible {
		row := int(y) * w
		dst, stay := next[row:row+w], dp[row:row+w]
		if y&ibit == 0 {
			for j := range dst {
				dst[j] = stay[j] + remote[j]
			}
			continue
		}
		join := dp[row-int(ibit)*w:][:w]
		for j := range dst {
			dst[j] = min(join[j]+saving[j], stay[j]+local[j])
		}
	}
}

// foldRowsGeneric computes, for every mask Z that contains the writer
// ibit, g[Z] = min over Y of (dp[Y] + cc·|Y \ Z|) — the half of
// minTransform's output relaxWrite reads — folding the writer's bit first.
// It writes no other row of g.
//
// The value is the one minTransform computes, bit for bit. A candidate Y
// reaches Z as dp[Y] with cc added once per folded bit of Y \ Z: the same
// additions of the same cc whatever order the bits are folded in, and a
// min of non-NaN floats does not depend on the order it is taken in (nor
// on taking it before or after adding cc, rounding being monotone). So the
// writer's bit may go first, where it costs nothing: Z contains it, a
// minimizing Y is free to, and only the masks that contain it are kept.
// The other n-1 bits are then folded over that half alone.
func foldRowsGeneric(dp, g []float64, all, ibit uint32, cc []float64) {
	w := len(cc)
	rest := all &^ ibit
	for sub := uint32(0); ; sub = (sub - rest) & rest {
		b, a := int(sub|ibit)*w, int(sub)*w
		dst, with, without := g[b:b+w], dp[b:b+w], dp[a:a+w]
		for j, v := range with {
			dst[j] = min(v, without[j])
		}
		if sub == rest {
			break
		}
	}
	for bit := uint32(1); bit <= rest; bit <<= 1 {
		if bit == ibit {
			continue
		}
		// Every pair of masks that contain the writer and differ in bit:
		// ga without it, gb with it (see minTransform).
		free := rest &^ bit
		for sub := uint32(0); ; sub = (sub - free) & free {
			a := sub | ibit
			ga, gb := g[int(a)*w:][:w], g[int(a|bit)*w:][:w]
			for j, ha := range ga {
				hb := gb[j]
				ga[j] = min(ha, hb+cc[j])
				gb[j] = min(hb, ha)
			}
			if sub == free {
				break
			}
		}
	}
}

// writeRowsGeneric is relaxWrite over [state][model] rows of w floats:
// for every feasible x, the row of x in next becomes g[x|ibit] plus the
// charge row of execution-set size sizes[x] — writeIn's when x contains
// the writer ibit, writeOut's when it does not.
func writeRowsGeneric(g, next []float64, feasible, sizes []uint32, ibit uint32, w int, writeIn, writeOut []float64) {
	for _, x := range feasible {
		charge := writeIn
		if x&ibit == 0 {
			charge = writeOut
		}
		charge = charge[int(sizes[x])*w:][:w]
		dst, src := next[int(x)*w:][:w], g[int(x|ibit)*w:][:w]
		for j := range dst {
			dst[j] = src[j] + charge[j]
		}
	}
}
