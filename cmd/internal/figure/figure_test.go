package figure

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"objalloc/internal/competitive"
	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/model"
)

// TestCertifiedMapFigure1 recomputes what figure1 prints on its default
// grid from scratch. At every cell of the paper's unknown band the printed
// DA fraction at n = 3 is Factor (opt.Plan.Rate) on the graph's attaining
// period, so the graph and Rate agree, and is within the paper's bound;
// SA's factor, printed and read off its graph, is 1+cc+cd; an S
// witness's Factor exceeds it. The marks are the paper's elsewhere, S at (0.2, 0.4) and
// (0.4, 0.4) from N = 4, and d at the other twelve. The cells are the
// same at parallelism 1 and 2, and a cell beyond the scale rule comes
// back · without a graph.
func TestCertifiedMapFigure1(t *testing.T) {
	ctx := context.Background()
	cells, err := Grid(ctx, false, 2, 10, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if two, err := Grid(ctx, false, 2, 10, 2, nil); err != nil || !reflect.DeepEqual(cells, two) {
		t.Fatalf("the cells differ at parallelism 1 and 2 (err %v)", err)
	}
	rows := strings.Split(table(cells), "\n")[2:] // past the header and its rule
	marks := map[rune]int{}
	for _, c := range cells {
		if c.Mark == 'x' {
			continue
		}
		m, row := c.Model, strings.Fields(rows[0])
		rows = rows[1:]
		if m.Region() != cost.RegionUnknown {
			if c.Mark != m.Region().Rune() || c.N != 0 {
				t.Errorf("%v: mark %c, N %d, want the paper's %c", m, c.Mark, c.N, m.Region().Rune())
			}
			continue
		}
		marks[c.Mark]++
		a, err := competitive.NewArena(ctx, m, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		graph, err := a.Exact(ctx, dom.StaticFactory)
		if err != nil {
			t.Fatal(err)
		}
		if sa := (5 + math.Round(5*m.CC) + math.Round(5*m.CD)) / 5; graph.Factor() != sa || c.SA != sa || row[2] != fmt.Sprintf("%.4g", sa) {
			t.Errorf("%v: SA's factor reads %v (printed %s), its graph's %v; want 1+cc+cd = %v", m, c.SA, row[2], graph, sa)
		}
		var num, den int64
		if _, err := fmt.Sscanf(row[4], "%d/%d", &num, &den); err != nil {
			t.Fatalf("%v: DA's fraction at n = 3 printed as %q: %v", m, row[4], err)
		}
		rate, err := competitive.Factor(ctx, m, dom.DynamicFactory, c.DA3.Period, model.FullSet(2), 2)
		if err != nil {
			t.Fatal(err)
		}
		if da := float64(num) / float64(den); da != rate || da > competitive.DABound(m) {
			t.Errorf("%v: printed DA %d/%d at n = 3; Factor on its period %v reads %v, the paper's bound %v", m, num, den, c.DA3.Period, rate, competitive.DABound(m))
		}
		if c.Mark != 'S' {
			continue
		}
		witness, err := competitive.Factor(ctx, m, dom.DynamicFactory, c.Period, model.FullSet(2), 2)
		if err != nil {
			t.Fatal(err)
		}
		n := bits.Len64(uint64(c.Period.Processors() | model.FullSet(2)))
		if witness <= c.SA || row[5] != fmt.Sprintf("%.4g", witness) || row[6] != fmt.Sprint(n) {
			t.Errorf("%v: witness %v printed %s on %s; Factor reads %v on %d processors against SA's %v", m, c.Period, row[5], row[6], witness, n, c.SA)
		}
		if m.CD != 0.4 || c.N != 4 {
			t.Errorf("%v: S from N = %d, want only (0.2, 0.4) and (0.4, 0.4), from N = 4", m, c.N)
		}
	}
	if marks['S'] != 2 || marks['d'] != 12 || len(marks) != 2 {
		t.Errorf("unknown-band marks %v, want 2 S and 12 d", marks)
	}

	// At q = 50 the graph is ~436 000 states, 0.7 s to build.
	if c, err := competitive.Classify(ctx, cost.SC(0.46, 0.5), nil); err != nil || c.Mark != '·' || c.DA3.States != 0 {
		t.Errorf("SC(0.46, 0.5) past the scale rule: mark %c, %d states, err %v; want · with no graph", c.Mark, c.DA3.States, err)
	}
}
