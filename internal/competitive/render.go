package competitive

import (
	"fmt"
	"slices"
	"strings"
)

// RenderProved draws classified cells as an ASCII region map in the style
// of the paper's figures 1 and 2: cd increases along the x axis, cc along
// the y axis (top row = largest cc), each cell its certified mark
// (Classify), or, with analytic, the paper's region.
func RenderProved(cells []Proved, analytic bool) string {
	if len(cells) == 0 {
		return "(empty grid)\n"
	}
	marks := make(map[[2]float64]rune, len(cells))
	var ccs, cds []float64
	for _, c := range cells {
		r := c.Mark
		if analytic {
			r = c.Model.Region().Rune()
		}
		marks[[2]float64{c.Model.CC, c.Model.CD}] = r
		ccs, cds = append(ccs, c.Model.CC), append(cds, c.Model.CD)
	}
	slices.Sort(ccs)
	slices.Sort(cds)
	ccs, cds = slices.Compact(ccs), slices.Compact(cds)

	var b strings.Builder
	b.WriteString(" cc\\cd |")
	for _, cd := range cds {
		fmt.Fprintf(&b, "%6.2f", cd)
	}
	fmt.Fprintf(&b, "\n%s\n", strings.Repeat("-", 8+6*len(cds)))
	for i := len(ccs) - 1; i >= 0; i-- {
		fmt.Fprintf(&b, "%6.2f |", ccs[i])
		for _, cd := range cds {
			ch, ok := marks[[2]float64{ccs[i], cd}]
			if !ok {
				ch = ' '
			}
			fmt.Fprintf(&b, "%5c ", ch)
		}
		b.WriteString("\n")
	}
	if analytic {
		b.WriteString("legend: S = SA superior, D = DA superior, ? = unknown, x = cannot be true (cc > cd)\n")
	} else {
		b.WriteString("legend: S = SA better (where the bounds leave it open: at every n >= N, N in the table), D = DA better (the bounds),\n" +
			"        d = DA better at n = 3 and open beyond, ? = open, · = no graph built and no witness, x = cannot be true (cc > cd)\n")
	}
	return b.String()
}
