package opt

import (
	"context"
	"math"
	"testing"

	"objalloc/internal/cost"
	"objalloc/internal/model"
)

// fuzzIDs are the sparse processor ids a fuzzed instance draws from: the
// solver must not care that they are neither small nor contiguous.
var fuzzIDs = [6]model.ProcessorID{3, 7, 12, 20, 41, 63}

// fuzzModel decodes one byte into a valid SC or MC model (cc <= cd).
func fuzzModel(b byte) cost.Model {
	cc := []float64{0, 0.05, 0.3, 1, 1.5}[int(b&0x0f)%5]
	cd := cc + []float64{0, 0.2, 1, 2.5}[int(b>>4&0x07)%4]
	if b&0x80 != 0 {
		return cost.MC(cc, cd)
	}
	return cost.SC(cc, cd)
}

// fuzzInstance decodes bytes into a solvable instance: n <= 6 processors
// with sparse ids, 1 <= t <= n, an initial scheme of at least t members,
// two models, and a schedule of at most 24 requests (one byte each: the
// low bits pick the processor, bit 3 makes it a write).
func fuzzInstance(data []byte) (sched model.Schedule, initial model.Set, t int, m, m2 cost.Model) {
	var hdr [5]byte
	copy(hdr[:], data)
	n := 1 + int(hdr[0])%len(fuzzIDs)
	t = 1 + int(hdr[1])%n
	m, m2 = fuzzModel(hdr[2]), fuzzModel(hdr[3])
	for i := 0; i < n; i++ {
		if hdr[4]&(1<<uint(i)) != 0 {
			initial = initial.Add(fuzzIDs[i])
		}
	}
	for i := 0; initial.Size() < t; i++ {
		initial = initial.Add(fuzzIDs[i])
	}
	if len(data) > len(hdr) {
		body := data[len(hdr):]
		if len(body) > 24 {
			body = body[:24]
		}
		for _, b := range body {
			p := fuzzIDs[int(b&0x07)%n]
			if b&0x08 != 0 {
				sched = append(sched, model.W(p))
			} else {
				sched = append(sched, model.R(p))
			}
		}
	}
	return sched, initial, t, m, m2
}

// FuzzOptCost checks the compiled-plan solver against everything else in
// the package that knows the optimum: exhaustive enumeration on tiny
// instances, the traceback's own allocation schedule priced step by step,
// fresh one-shot solves under a second model (a Plan must carry no state
// from one model's pass into the next), and run, the one-model DP Solve
// traces back through — Cost under either model, and Costs under both at
// once, must equal it bit for bit — the Bound, whose Floor must stay
// below its Price and its Price below the optimum, and Rate, which must
// predict the optimum's growth over the schedule repeated, which Cost's
// periodic pass must price as run does.
func FuzzOptCost(f *testing.F) {
	f.Add([]byte{})                                              // empty schedule, n = t = 1
	f.Add([]byte{4, 1, 0x12, 0x85, 0x03})                        // empty schedule, n = 5, t = 2
	f.Add([]byte{2, 0, 0x22, 0x11, 0x01, 8, 9, 10, 8, 9, 10})    // all writes
	f.Add([]byte{2, 2, 0x12, 0x92, 0x07, 0, 9, 2, 1, 10, 0})     // t = n = 3
	f.Add([]byte{3, 1, 0x21, 0x03, 0x03, 11, 3, 3, 10, 2, 2, 2}) // writers outside the initial scheme
	f.Add([]byte{5, 2, 0x32, 0xa1, 0x15, 5, 5, 13, 4, 3, 12, 0, 1, 2, 8, 3, 4, 5, 5, 5})
	f.Add([]byte{1, 0, 0x00, 0x80, 0x00, 1, 1, 1, 9, 1, 1}) // free messages; MC with cc = cd = 0
	// Write-heavy, n = 6, t = 3: most requests run the write fold.
	f.Add([]byte{5, 2, 0x12, 0x21, 0x23, 8, 13, 10, 4, 9, 12, 11, 8, 2, 13, 13, 9, 10, 5, 12, 8, 11})
	// Periodic, under whole models SC(1, 2) and MC(1, 2), so that Cost and
	// Costs take the periodic pass: the outsider rounds at n = 5, a
	// ping-pong and a read run at n = 3.
	f.Add([]byte{4, 1, 0x23, 0xa3, 0x03, 2, 3, 4, 8, 2, 3, 4, 8, 2, 3, 4, 8, 2, 3, 4, 8, 2, 3, 4, 8, 2, 3, 4, 8})
	f.Add([]byte{2, 1, 0x23, 0xa3, 0x03, 8, 2, 8, 2, 8, 2, 8, 2, 8, 2, 8, 2, 8, 2, 8, 2})
	f.Add([]byte{2, 1, 0x23, 0xa3, 0x03, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		sched, initial, tAvail, m, m2 := fuzzInstance(data)
		ctx := context.Background()
		plan, err := Compile(sched, initial, tAvail)
		if err != nil {
			t.Fatalf("Compile rejected a well-formed instance: %v", err)
		}
		got, err := plan.Cost(ctx, m)
		if err != nil {
			t.Fatal(err)
		}

		univ := sched.Processors().Union(initial)
		if univ.Size() <= 3 && len(sched) <= 6 {
			if want := bruteForce(m, sched, initial, tAvail, univ); math.Abs(got-want) > eps {
				t.Fatalf("plan cost %g, brute force %g\nmodel %v t=%d initial=%v sched: %v", got, want, m, tAvail, initial, sched)
			}
		}

		res, err := Solve(m, sched, initial, tAvail)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost != got {
			t.Fatalf("Solve cost %b != plan cost %b", res.Cost, got)
		}
		if !res.Alloc.CorrespondsTo(sched) {
			t.Fatalf("reconstruction %v does not correspond to %v", res.Alloc, sched)
		}
		if err := res.Alloc.Validate(initial, tAvail); err != nil {
			t.Fatalf("reconstructed schedule invalid: %v\nalloc: %v", err, res.Alloc)
		}
		if priced := cost.ScheduleCost(m, res.Alloc, initial); math.Abs(priced-got) > eps {
			t.Fatalf("reconstruction prices at %g, optimum is %g\nalloc: %v", priced, got, res.Alloc)
		}

		// One plan, two models, either order: bit-equal to fresh solves.
		got2, err := plan.Cost(ctx, m2)
		if err != nil {
			t.Fatal(err)
		}
		again, err := plan.Cost(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := SolveCost(m, sched, initial, tAvail)
		if err != nil {
			t.Fatal(err)
		}
		fresh2, err := SolveCost(m2, sched, initial, tAvail)
		if err != nil {
			t.Fatal(err)
		}
		if got != fresh || again != fresh || got2 != fresh2 {
			t.Fatalf("shared plan: %b then %b under %v, %b under %v; fresh solves %b and %b", got, again, m, got2, m2, fresh, fresh2)
		}

		// Floor ≤ Price ≤ Cost under either model, Price after the
		// relative 1e-9 a sweep deflates it by before pruning.
		bd, err := NewBound(sched, initial, tAvail)
		if err != nil {
			t.Fatalf("NewBound rejected an instance Compile accepted: %v", err)
		}
		for _, c := range []struct {
			m   cost.Model
			opt float64
		}{{m, got}, {m2, got2}} {
			if floor, lb := bd.Floor(c.m), bd.Price(c.m); floor > lb || lb*(1-1e-9) > c.opt {
				t.Fatalf("Floor %g, Price %g, optimum %g under %v, t=%d\nsched: %v", floor, lb, c.opt, c.m, tAvail, sched)
			}
		}

		// The grid pass against run, which Solve traced back through.
		ref2, _, err := plan.run(ctx, m2, nil, new(workspace))
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got2) != math.Float64bits(ref2) {
			t.Fatalf("Cost %b under %v, run %b", got2, m2, ref2)
		}
		both, err := plan.Costs(ctx, []cost.Model{m, m2})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(both[0]) != math.Float64bits(res.Cost) || math.Float64bits(both[1]) != math.Float64bits(ref2) {
			t.Fatalf("Costs %b, %b; run %b under %v, %b under %v", both[0], both[1], res.Cost, m, ref2, m2)
		}

		// The schedule as a period, at the model's prices ×20 (whole):
		// past the cycle's start, the optimum grows by Rate's growth over
		// every whole cycle, exactly. The replays are priced by run, the
		// full walk, and must carry its bits through Cost too, which takes
		// the periodic pass for two periods or more.
		if len(sched) == 0 {
			return
		}
		wm := cost.Model{CC: math.Round(20 * m.CC), CD: math.Round(20 * m.CD), CIO: 20 * m.CIO}
		growth, periods, start, err := plan.Rate(ctx, wm)
		if err != nil {
			t.Fatal(err)
		}
		var at [2]float64
		for i, reps := range []int{start, start + 3*periods} {
			var run model.Schedule
			for range reps {
				run = append(run, sched...)
			}
			replay, err := Compile(run, initial, tAvail)
			if err != nil {
				t.Fatal(err)
			}
			if at[i], _, err = replay.run(ctx, wm, nil, new(workspace)); err != nil {
				t.Fatal(err)
			}
			if c, err := replay.Cost(ctx, wm); err != nil || math.Float64bits(c) != math.Float64bits(at[i]) {
				t.Fatalf("%d periods of %v under %v: Cost %b (%v), run %b", reps, sched, wm, c, err, at[i])
			}
		}
		if at[1]-at[0] != 3*growth {
			t.Fatalf("Rate: growth %g over %d periods from %d; a replay of 3 cycles grows %g\nmodel %v t=%d initial=%v period: %v", growth, periods, start, at[1]-at[0], wm, tAvail, initial, sched)
		}
	})
}
