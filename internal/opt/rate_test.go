package opt

import (
	"context"
	"errors"
	"strings"
	"testing"

	"objalloc/internal/cost"
	"objalloc/internal/model"
)

// A read run from outside the scheme repeats only because of the cut: the
// state without the reader climbs by remote − local = cc + cd a period
// until it passes K = n·(2cc + cd + cio), and from then on the row is the
// reader's state alone, growing by one local read a period. At
// n = 3, cc = 4, cd = 11, cio = 10 it climbs by 15 past K = 87 at the
// eighth period.
func TestRateReadRunRepeatsUnderTheCut(t *testing.T) {
	ctx := context.Background()
	m := cost.Model{CC: 4, CD: 11, CIO: 10}
	plan, err := Compile(model.MustParseSchedule("r5"), model.NewSet(0, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	growth, periods, start, err := plan.Rate(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if growth != 10 || periods != 1 || start != 8 {
		t.Errorf("Rate = growth %v over %d periods from %d, want 10 over 1 from 8", growth, periods, start)
	}

	// At cc + cd = 1 against K = 3·2001 the gap takes ~8 000 periods to
	// pass K, and Rate gives up at maxPeriods.
	if _, _, _, err := plan.Rate(ctx, cost.Model{CC: 0, CD: 1, CIO: 2000}); err == nil || !strings.Contains(err.Error(), "did not repeat within 1024 periods") {
		t.Errorf("Rate past maxPeriods: err = %v", err)
	}
}

func TestRateRefusals(t *testing.T) {
	plan, err := Compile(model.MustParseSchedule("r2 w0"), model.NewSet(0, 1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := plan.Rate(context.Background(), cost.SC(0.5, 1)); err == nil {
		t.Error("Rate accepted a price that is not whole")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := plan.Rate(ctx, cost.SC(1, 2)); !errors.Is(err, context.Canceled) {
		t.Errorf("Rate under a cancelled context: err = %v, want context.Canceled", err)
	}
}
