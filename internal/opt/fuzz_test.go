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
// once, must equal it bit for bit — and the closed-form Bound, which must
// stay below it.
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

		// The closed-form bound lies below the optimum under either model,
		// after the relative 1e-9 a sweep deflates it by before pruning.
		bd, err := NewBound(sched, initial, tAvail)
		if err != nil {
			t.Fatalf("NewBound rejected an instance Compile accepted: %v", err)
		}
		if lb := bd.Price(m); lb*(1-1e-9) > got {
			t.Fatalf("bound %g above optimum %g under %v, t=%d\nsched: %v", lb, got, m, tAvail, sched)
		}
		if lb := bd.Price(m2); lb*(1-1e-9) > got2 {
			t.Fatalf("bound %g above optimum %g under %v, t=%d\nsched: %v", lb, got2, m2, tAvail, sched)
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
	})
}
