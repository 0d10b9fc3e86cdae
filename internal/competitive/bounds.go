package competitive

import (
	"math"

	"objalloc/internal/cost"
)

// The paper's proven competitiveness factors. Each function returns the
// upper bound on COST_A / COST_OPT for the given cost model, or +Inf when
// the paper shows the algorithm is not competitive at all.

// SABound is Theorem 1: in the stationary model SA is (1 + cc + cd)-
// competitive, and by Proposition 1 this is tight. In the mobile model SA
// is not competitive at all (Proposition 3).
func SABound(m cost.Model) float64 {
	if m.IsMobile() {
		return math.Inf(1)
	}
	// With a general cio the normalized factor is 1 + (cc+cd)/cio; the
	// paper normalizes cio = 1.
	return 1 + (m.CC+m.CD)/m.CIO
}

// DABound is Theorems 2–4: in the stationary model DA is
// (2 + 2cc)-competitive in general and (2 + cc)-competitive when cd > 1
// (costs normalized to cio = 1); in the mobile model DA is
// (2 + 3cc/cd)-competitive.
func DABound(m cost.Model) float64 {
	if m.IsMobile() {
		if m.CD == 0 {
			// Degenerate: all communication free; every algorithm costs 0.
			return 1
		}
		return 2 + 3*m.CC/m.CD
	}
	cc, cd := m.CC/m.CIO, m.CD/m.CIO
	if cd > 1 {
		return 2 + cc // Theorem 3
	}
	return 2 + 2*cc // Theorem 2
}

// DALowerBound is Proposition 2: DA is not α-competitive for any α < 1.5.
const DALowerBound = 1.5
