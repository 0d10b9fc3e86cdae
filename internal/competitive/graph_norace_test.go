//go:build !race

package competitive

import (
	"testing"

	"objalloc/internal/cost"
)

// The self-checks over the figure grids' shape, at n = 3, t = 2: every
// admissible cell of an SC and an MC grid whose axes cover all four
// analytic regions (SA-superior, the unknown band, DA-superior, and the
// cannot-be-true half it skips), and the cells E3, E5, E6 and E9 print.
// They build ~70 graphs, up to 350 000 states, so they run only in the
// build without the race detector.
func TestExactFactorSelfChecksGrid(t *testing.T) {
	axis := []float64{0.2, 0.4, 0.8, 1.2, 2}
	var cells []cost.Model
	for _, mobile := range []bool{false, true} {
		for _, cc := range axis {
			for _, cd := range axis {
				m := cost.SC(cc, cd)
				if mobile {
					m = cost.MC(cc, cd)
				}
				if m.Region() != cost.RegionCannotBeTrue {
					cells = append(cells, m)
				}
			}
		}
	}
	cells = append(cells,
		cost.SC(0.05, 0.1), cost.SC(0.1, 0.3), cost.SC(0.2, 0.7), cost.SC(0.3, 1.2), cost.SC(0.5, 2), cost.SC(1, 3),
		cost.MC(0.05, 0.1), cost.MC(0.2, 0.5), cost.MC(0.5, 1), cost.MC(1, 2.5), cost.MC(2, 2))
	regions := map[cost.Region]bool{}
	for _, m := range cells {
		regions[m.Region()] = true
		selfCheck(t, m, nil)
	}
	if len(regions) != 3 {
		t.Errorf("the cells cover %d admissible regions, want SA-superior, unknown and DA-superior", len(regions))
	}
}
