package opt

import (
	"context"
	"fmt"
	"math"
	"slices"

	"objalloc/internal/cost"
)

// maxPeriods is the most periods Rate runs, keeping a row per period.
const maxPeriods = 1 << 10

// Rate prices the plan as one period of an endless repetition: it runs
// run's pass a period at a time until the row less its minimum repeats,
// and returns the minimum's growth over the cycle, the cycle's length in
// periods and the period it starts at. Prices must be whole, so every sum
// is exact. At each boundary it drops the states more than
// K = n·(2cc + cd + cio) above the minimum, which no optimal schedule
// passes through (DESIGN §5, "Exact factors of periodic families");
// without the cut a read run's rows never repeat.
func (p *Plan) Rate(ctx context.Context, m cost.Model) (growth float64, periods, start int, err error) {
	if err := m.Validate(); err != nil {
		return 0, 0, 0, err
	}
	if m.CC != math.Trunc(m.CC) || m.CD != math.Trunc(m.CD) || m.CIO != math.Trunc(m.CIO) || len(p.reqs) == 0 {
		return 0, 0, 0, fmt.Errorf("opt: a periodic rate needs whole prices and a request, got %v and %d", m, len(p.reqs))
	}
	k := float64(len(p.ids)) * (2*m.CC + m.CD + m.CIO)
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	dp, next, g := p.startRows(ws)
	seen := make(map[string]int) // a normalised row, as text, → its boundary
	var floor []float64          // the row's minimum at each boundary
	var key []byte
	for b, total := 0, 0.0; ; b++ {
		lo := slices.Min(dp) // +Inf at every infeasible mask
		for _, y := range p.feasible {
			if dp[y] -= lo; dp[y] > k {
				dp[y] = inf
			}
		}
		key = fmt.Append(key[:0], dp) // %v prints a float64 that parses back to it
		total += lo
		floor = append(floor, total)
		if first, ok := seen[string(key)]; ok {
			return total - floor[first], b - first, first, nil
		}
		if b == maxPeriods {
			return 0, 0, 0, fmt.Errorf("opt: the row did not repeat within %d periods", maxPeriods)
		}
		seen[string(key)] = b
		if dp, next, err = p.pass(ctx, m, dp, next, g, nil, nil); err != nil {
			return 0, 0, 0, err
		}
	}
}
