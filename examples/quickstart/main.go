// Quickstart: the core loop of the objalloc library in one file.
//
// It builds the paper's two online algorithms (static and dynamic
// allocation), runs them on a small schedule of read-write requests, prices
// both under the stationary-computing cost model, compares them against the
// exact offline optimum, and then executes the same schedule on the real
// message-passing cluster to show the executed protocol bills exactly what
// the analysis predicts.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"objalloc"
)

func main() {
	log.SetFlags(0)

	// A schedule in the paper's notation: w2 = write by processor 2,
	// r4 = read by processor 4. Processor ids start at 0.
	sched := objalloc.MustParseSchedule("w2 r4 r4 r3 w0 r4 r4 r4")

	// The availability constraint: at least t = 2 processors must hold
	// the latest version at all times. The initial allocation scheme is
	// {0, 1}: for DA that means core F = {0} and designated p = 1.
	const t = 2
	initial := objalloc.NewSet(0, 1)

	// The stationary-computing cost model: one I/O costs 1, a control
	// message 0.3, a data message 1.2 (cd > 1, so the paper predicts
	// dynamic allocation wins in the worst case).
	m := objalloc.SC(0.3, 1.2)

	fmt.Printf("schedule: %v\n", sched)
	fmt.Printf("cost model: %v, t = %d, initial scheme %v\n\n", m, t, initial)

	// 1. Run SA and DA analytically and price their allocation schedules.
	for _, mk := range []struct {
		name string
		new  func(objalloc.Set, int) (objalloc.Algorithm, error)
	}{{"SA", objalloc.NewStatic}, {"DA", objalloc.NewDynamic}} {
		alg, err := mk.new(initial, t)
		if err != nil {
			log.Fatal(err)
		}
		las := objalloc.Run(alg, sched)
		fmt.Printf("%s allocation schedule: %v\n", mk.name, las)
		fmt.Printf("%s cost: %.2f (final scheme %v)\n\n", mk.name,
			objalloc.ScheduleCost(m, las, initial), alg.Scheme())
	}

	// 2. The offline optimum — the yardstick of the competitive analysis.
	res, err := objalloc.OptimalContext(context.Background(), m, sched, initial, t)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline optimum: %.2f via %v\n\n", res.Cost, res.Alloc)

	// 3. Competitive ratios against the paper's proven bounds.
	for _, f := range []struct {
		name    string
		factory objalloc.Factory
		bound   float64
	}{
		{"SA", objalloc.StaticFactory, objalloc.SABound(m)},
		{"DA", objalloc.DynamicFactory, objalloc.DABound(m)},
	} {
		meas, err := objalloc.Ratio(m, f.factory, sched, initial, t)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s ratio on this schedule: %.3f (paper's worst-case bound %.2f)\n",
			f.name, meas.Ratio, f.bound)
	}

	// 4. Execute the same schedule on the real distributed system: one
	// message handler per processor, billed messages, local databases.
	cluster, err := objalloc.NewCluster(5,
		objalloc.WithProtocol(objalloc.ProtocolDA),
		objalloc.WithAvailability(t),
		objalloc.WithInitial(initial),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	if _, err := cluster.Run(sched); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexecuted DA protocol accounting: %v\n", cluster.Counts())
	fmt.Printf("executed DA protocol cost:      %.2f\n", cluster.Cost(m))
	fmt.Printf("cluster allocation scheme:      %v\n", cluster.Scheme())
}
