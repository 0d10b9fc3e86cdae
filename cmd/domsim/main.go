// Command domsim runs the message-level distributed system simulator: SA
// or DA executed as real protocols (a message handler per processor, billed
// point-to-point messages, per-processor local databases, join-lists and
// invalidations), driven by a generated workload. It reports the integer
// message/I/O accounting, the priced cost under both the stationary and
// mobile models, the final allocation scheme, and — with -verify —
// cross-checks the executed counts against the analytic cost model.
// -verify checks a sequential run only: it is refused with -concurrent
// or -failover.
//
// With -failover, the run uses the highly-available cluster: it crashes a
// member of F mid-run, demonstrates the quorum-consensus fallback of §2,
// restarts the member (missing-writes catch-up), and fails back to DA.
//
// Usage:
//
//	domsim [-protocol da] [-n 8] [-t 2] [-workload uniform] [-len 200]
//	       [-pwrite 0.3] [-cc 0.3] [-cd 1.2] [-seed 1] [-disk dir]
//	       [-concurrent] [-verify] [-failover]
//	       [-metrics out.jsonl] [-progress] [-pprof addr]
//
// -metrics streams one JSON line per executed request (messages by type,
// I/Os, allocation-scheme transitions) plus a final registry snapshot,
// -progress reports request progress on stderr, and -pprof serves
// net/http/pprof and expvar on the given address.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"path/filepath"

	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/ha"
	"objalloc/internal/model"
	"objalloc/internal/obs"
	"objalloc/internal/sim"
	"objalloc/internal/storage"
	"objalloc/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("domsim: ")
	var (
		protocol   = flag.String("protocol", "da", "protocol: sa or da")
		n          = flag.Int("n", 8, "processors")
		t          = flag.Int("t", 2, "availability threshold")
		wl         = flag.String("workload", "uniform", "workload: uniform, zipf, bursty, mobile, publishing, satellite")
		schedFlag  = flag.String("schedule", "", "explicit schedule in paper notation (overrides -workload), e.g. \"w2 r4 r4\"")
		specFlag   = flag.String("spec", "", "workload spec, e.g. \"zipf:n=8,len=300,s=2\" (overrides -workload)")
		length     = flag.Int("len", 200, "schedule length (or moves/revisions/objects for traces)")
		pWrite     = flag.Float64("pwrite", 0.3, "write probability (uniform/zipf)")
		cc         = flag.Float64("cc", 0.3, "control message cost")
		cd         = flag.Float64("cd", 1.2, "data message cost")
		seed       = flag.Int64("seed", 1, "workload seed")
		diskDir    = flag.String("disk", "", "directory for disk-backed local databases (default: in-memory)")
		concurrent = flag.Bool("concurrent", false, "issue each run of reads between writes as one burst, all in flight at once")
		verify     = flag.Bool("verify", false, "cross-check executed counts against the analytic cost model")
		showLoads  = flag.Bool("loads", false, "print per-processor load distribution")
		failover   = flag.Bool("failover", false, "demonstrate DA -> quorum failover and recovery mid-run")
		metrics    = flag.String("metrics", "", "write instrumentation events and a final registry snapshot to this JSONL file")
		progress   = flag.Bool("progress", false, "report request progress on stderr")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof and expvar on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	if *verify && (*concurrent || *failover) {
		// -verify replays the schedule through the analytic algorithm one
		// request at a time; a burst or a failover run is not that.
		log.Fatal("-verify cannot be combined with -concurrent or -failover")
	}

	cli, err := obs.StartCLI(obs.CLIOptions{
		Metrics: *metrics, Progress: *progress, PprofAddr: *pprofAddr, Label: "domsim",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := cli.Close(); err != nil {
			log.Fatal(err)
		}
	}()

	rng := rand.New(rand.NewSource(*seed))
	var sched model.Schedule
	if *schedFlag != "" {
		var err error
		sched, err = model.ParseSchedule(*schedFlag)
		if err != nil {
			log.Fatal(err)
		}
	}
	if sched == nil && *specFlag != "" {
		var err error
		sched, err = workload.FromSpec(rng, *specFlag)
		if err != nil {
			log.Fatal(err)
		}
	}
	if sched == nil {
		switch *wl {
		case "uniform":
			sched = workload.Uniform(rng, *n, *length, *pWrite)
		case "zipf":
			sched = workload.Zipf(rng, *n, *length, *pWrite, 1.8)
		case "bursty":
			sched = workload.Bursty(rng, *n, *length, 5, *pWrite)
		case "mobile":
			sched = workload.MobileTrace(rng, *n, *length, 4)
		case "publishing":
			sched = workload.Publishing(rng, *n, *length, model.NewSet(0, 1), 6)
		case "satellite":
			sched = workload.AppendOnly(rng, *n, *length, 3)
		default:
			log.Fatalf("unknown workload %q", *wl)
		}
	}
	initial := model.FullSet(*t)

	var newStore func(model.ProcessorID) (storage.Store, error)
	if *diskDir != "" {
		newStore = func(id model.ProcessorID) (storage.Store, error) {
			return storage.OpenDisk(filepath.Join(*diskDir, fmt.Sprintf("node-%d.log", id)), storage.DiskOptions{})
		}
	}

	if *failover {
		runFailover(*n, *t, initial, sched, cli.Obs())
		return
	}

	var proto sim.Protocol
	var factory dom.Factory
	switch *protocol {
	case "sa":
		proto, factory = sim.SA, dom.StaticFactory
	case "da":
		proto, factory = sim.DA, dom.DynamicFactory
	default:
		log.Fatalf("unknown protocol %q", *protocol)
	}

	c, err := sim.New(sim.Config{N: *n, T: *t, Protocol: proto, Initial: initial, NewStore: newStore, Obs: cli.Obs()})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	if *concurrent {
		_, err = c.RunConcurrent(sched)
	} else {
		_, err = c.Run(sched)
	}
	if err != nil {
		log.Fatal(err)
	}

	counts := c.Counts()
	fmt.Printf("protocol %v, %d processors, t=%d, %d requests (%d reads, %d writes)\n",
		proto, *n, *t, len(sched), sched.Reads(), sched.Writes())
	fmt.Printf("accounting: %v\n", counts)
	fmt.Printf("cost SC(cc=%g,cd=%g): %.2f\n", *cc, *cd, counts.Price(cost.SC(*cc, *cd)))
	fmt.Printf("cost MC(cc=%g,cd=%g): %.2f\n", *cc, *cd, counts.Price(cost.MC(*cc, *cd)))
	fmt.Printf("final allocation scheme: %v\n", c.Scheme())

	if *showLoads {
		fmt.Println("\nper-processor loads:")
		fmt.Printf("%4s %8s %8s %8s %8s %8s %8s\n", "id", "in", "out", "ctl-tx", "ctl-rx", "data-tx", "data-rx")
		for _, l := range c.Loads() {
			fmt.Printf("%4d %8d %8d %8d %8d %8d %8d\n", l.ID, l.IO.Inputs, l.IO.Outputs,
				l.Net.ControlSent, l.Net.ControlReceived, l.Net.DataSent, l.Net.DataReceived)
		}
	}

	if *verify {
		las, err := dom.RunFactory(factory, initial, *t, sched)
		if err != nil {
			log.Fatal(err)
		}
		want := cost.TotalCounts(las, initial)
		if counts == want {
			fmt.Printf("verify: executed counts match the analytic cost model exactly (%v)\n", want)
		} else {
			log.Fatalf("verify: executed %v != analytic %v", counts, want)
		}
	}
}

// runFailover demonstrates the §2 failure story end to end. The observed
// portion of the event stream is the quorum phase: each quorum operation
// between the crash and the failback emits one event.
func runFailover(n, t int, initial model.Set, sched model.Schedule, o *obs.Obs) {
	h, err := ha.New(ha.Config{N: n, T: t, Initial: initial, Obs: o})
	if err != nil {
		log.Fatal(err)
	}
	defer h.Close()

	crashAt := len(sched) / 3
	recoverAt := 2 * len(sched) / 3
	fMember := initial.Min()
	for i, q := range sched {
		switch i {
		case crashAt:
			if err := h.Crash(fMember); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("request %4d: crashed F member %d -> mode %v\n", i, fMember, h.Mode())
		case recoverAt:
			if err := h.Restart(fMember); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("request %4d: restarted %d (missing-writes catch-up) -> mode %v\n", i, fMember, h.Mode())
		}
		if h.Crashed().Contains(q.Processor) {
			continue // a crashed processor issues no requests
		}
		if q.IsRead() {
			if _, err := h.Read(q.Processor); err != nil {
				log.Fatalf("request %d (%v): %v", i, q, err)
			}
		} else {
			if _, err := h.Write(q.Processor, []byte("x")); err != nil {
				log.Fatalf("request %d (%v): %v", i, q, err)
			}
		}
	}
	counts := h.Counts()
	fmt.Printf("final mode: %v, latest version: %d\n", h.Mode(), h.LatestSeq())
	fmt.Printf("lifetime accounting: %v\n", counts)
}
