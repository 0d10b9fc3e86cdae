package competitive

import (
	"fmt"
	"slices"
	"strings"
)

// regionLegend explains the marks of the paper's regions.
const regionLegend = "legend: S = SA superior, D = DA superior, ? = unknown, x = cannot be true (cc > cd)\n"

// RenderGrid draws a sweep as an ASCII region map in the style of the
// paper's figures 1 and 2: cd increases along the x axis, cc along the
// y axis (top row = largest cc). Each cell is the chosen classification's
// rune: 'S' (SA superior), 'D' (DA superior), '?' (unknown/tied),
// 'x' (cc > cd, cannot be true).
//
// empirical selects the measured classification; otherwise the analytic
// one is drawn.
func RenderGrid(points []GridPoint, empirical bool) string {
	marks := make(map[[2]float64]rune, len(points))
	for _, p := range points {
		r := p.Analytic
		if empirical {
			r = p.Empirical
		}
		marks[[2]float64{p.CC, p.CD}] = r.Rune()
	}
	return renderMap(marks, regionLegend)
}

// RenderProved draws classified cells as RenderGrid draws a sweep: each
// cell's certified mark (Classify), or, with analytic, the paper's region.
func RenderProved(cells []Proved, analytic bool) string {
	marks := make(map[[2]float64]rune, len(cells))
	legend := "legend: S = SA better (where the bounds leave it open: at every n >= N, N in the table), D = DA better (the bounds),\n" +
		"        d = DA better at n = 3 and open beyond, ? = open, · = no graph built and no witness, x = cannot be true (cc > cd)\n"
	if analytic {
		legend = regionLegend
	}
	for _, c := range cells {
		r := c.Mark
		if analytic {
			r = c.Model.Region().Rune()
		}
		marks[[2]float64{c.Model.CC, c.Model.CD}] = r
	}
	return renderMap(marks, legend)
}

// renderMap draws the marks at their (cc, cd) over the plane, then legend.
func renderMap(marks map[[2]float64]rune, legend string) string {
	if len(marks) == 0 {
		return "(empty sweep)\n"
	}
	var ccs, cds []float64
	for k := range marks {
		ccs, cds = append(ccs, k[0]), append(cds, k[1])
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
	b.WriteString(legend)
	return b.String()
}
