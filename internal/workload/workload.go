// Package workload generates the request schedules that drive the
// experiments: uniform and skewed random mixes, the regular multi-phase
// patterns of the convergent-vs-competitive discussion (§5.1), and traces
// modeled on the paper's motivating applications — mobile-user location
// tracking (§1.1, §2), collaborative electronic publishing (§1.1), and the
// append-only satellite-image scenario (§6.2).
//
// All generators are deterministic functions of the *rand.Rand they are
// given, so every experiment is reproducible from its seed.
package workload

import (
	"fmt"
	"math/rand"

	"objalloc/internal/model"
)

// Uniform draws length requests; each request is issued by a processor
// chosen uniformly from 0..n-1 and is a write with probability pWrite.
func Uniform(rng *rand.Rand, n, length int, pWrite float64) model.Schedule {
	if n <= 0 {
		panic("workload: Uniform needs n > 0")
	}
	s := make(model.Schedule, length)
	for i := range s {
		s[i] = request(rng, model.ProcessorID(rng.Intn(n)), pWrite)
	}
	return s
}

func request(rng *rand.Rand, p model.ProcessorID, pWrite float64) model.Request {
	if rng.Float64() < pWrite {
		return model.W(p)
	}
	return model.R(p)
}

// Zipf draws issuing processors from a Zipf distribution with exponent s
// (s > 1; larger is more skewed), so a few processors issue most requests —
// the "hot reader" situation in which dynamic allocation shines.
func Zipf(rng *rand.Rand, n, length int, pWrite, s float64) model.Schedule {
	if n <= 0 {
		panic("workload: Zipf needs n > 0")
	}
	if s <= 1 {
		panic("workload: Zipf exponent must exceed 1")
	}
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	sched := make(model.Schedule, length)
	for i := range sched {
		sched[i] = request(rng, model.ProcessorID(z.Uint64()), pWrite)
	}
	return sched
}

// Hotspot draws a fraction hot of the requests from the processors of the
// hot set and the rest uniformly from 0..n-1.
func Hotspot(rng *rand.Rand, n, length int, pWrite float64, hotSet model.Set, hot float64) model.Schedule {
	if hotSet.IsEmpty() {
		panic("workload: empty hot set")
	}
	members := hotSet.Members()
	sched := make(model.Schedule, length)
	for i := range sched {
		var p model.ProcessorID
		if rng.Float64() < hot {
			p = members[rng.Intn(len(members))]
		} else {
			p = model.ProcessorID(rng.Intn(n))
		}
		sched[i] = request(rng, p, pWrite)
	}
	return sched
}

// Phase describes one stable period of a regular access pattern: for each
// processor, relative read and write rates.
type Phase struct {
	// Length is the number of requests drawn in this phase.
	Length int
	// ReadRate and WriteRate hold a relative weight per processor id;
	// missing entries mean zero. Weights need not be normalized.
	ReadRate  map[model.ProcessorID]float64
	WriteRate map[model.ProcessorID]float64
}

// Regular concatenates the phases into one schedule, drawing each request
// from the phase's weighted rates. This is the "generally regular" access
// pattern of §5.1 under which convergent algorithms are expected to do well.
func Regular(rng *rand.Rand, phases []Phase) (model.Schedule, error) {
	var sched model.Schedule
	for pi, ph := range phases {
		type weighted struct {
			req model.Request
			w   float64
		}
		var items []weighted
		var total float64
		// Readers then writers, each by processor id: ranging over the
		// maps directly would let Go's randomized iteration order pick
		// the schedule.
		add := func(rates map[model.ProcessorID]float64, op func(model.ProcessorID) model.Request) {
			ids := make([]model.ProcessorID, 0, len(rates))
			for p := range rates {
				ids = append(ids, p)
			}
			for _, p := range model.SortedIDs(ids) {
				if w := rates[p]; w > 0 {
					items = append(items, weighted{op(p), w})
					total += w
				}
			}
		}
		add(ph.ReadRate, model.R)
		add(ph.WriteRate, model.W)
		if total <= 0 {
			return nil, fmt.Errorf("workload: phase %d has no positive rates", pi)
		}
		for i := 0; i < ph.Length; i++ {
			x := rng.Float64() * total
			for _, it := range items {
				x -= it.w
				if x < 0 {
					sched = append(sched, it.req)
					break
				}
			}
		}
	}
	return sched, nil
}

// MobileTrace models the location-tracking scenario of §1.1/§2: the object
// is a mobile user's location. Processor 0 is the base station (it never
// issues requests itself here), processor 1 is the mobile user whose
// movement updates the location (writes), and processors 2..n-1 are other
// mobile processors reading the location on behalf of callers. Between
// consecutive movements, a geometric number of lookups (mean readsPerMove)
// arrive from random readers.
func MobileTrace(rng *rand.Rand, n, moves int, readsPerMove float64) model.Schedule {
	if n < 3 {
		panic("workload: MobileTrace needs n >= 3 (base station, owner, one reader)")
	}
	var sched model.Schedule
	for m := 0; m < moves; m++ {
		sched = append(sched, model.W(1))
		// Geometric number of reads with the given mean.
		p := 1 / (1 + readsPerMove)
		for rng.Float64() >= p {
			reader := model.ProcessorID(2 + rng.Intn(n-2))
			sched = append(sched, model.R(reader))
		}
	}
	return sched
}

// Publishing models collaborative electronic publishing (§1.1): a document
// co-authored by the processors of authors and read by everyone. Authors
// alternate bursts of edits (writes) with wide readership.
func Publishing(rng *rand.Rand, n, revisions int, authors model.Set, readersPerRevision int) model.Schedule {
	if authors.IsEmpty() {
		panic("workload: no authors")
	}
	mem := authors.Members()
	var sched model.Schedule
	for rev := 0; rev < revisions; rev++ {
		author := mem[rng.Intn(len(mem))]
		// An editing burst: read-modify-write at the author.
		sched = append(sched, model.R(author), model.W(author))
		for i := 0; i < readersPerRevision; i++ {
			sched = append(sched, model.R(model.ProcessorID(rng.Intn(n))))
		}
	}
	return sched
}

// AppendOnly models the satellite scenario of §6.2: a sequence of objects
// generated one per tick at earth stations; each new object is a write by
// its generating station, and stations read the latest object at arbitrary
// points in time. Station 0..n-1; each tick one write from a random station
// followed by reads from a Poisson-ish number of random stations.
func AppendOnly(rng *rand.Rand, n, objects int, readsPerObject float64) model.Schedule {
	if n <= 0 {
		panic("workload: AppendOnly needs n > 0")
	}
	var sched model.Schedule
	for o := 0; o < objects; o++ {
		sched = append(sched, model.W(model.ProcessorID(rng.Intn(n))))
		p := 1 / (1 + readsPerObject)
		for rng.Float64() >= p {
			sched = append(sched, model.R(model.ProcessorID(rng.Intn(n))))
		}
	}
	return sched
}

// ReadRun returns k consecutive reads from processor p — the building block
// of several nemesis schedules.
func ReadRun(p model.ProcessorID, k int) model.Schedule {
	s := make(model.Schedule, k)
	for i := range s {
		s[i] = model.R(p)
	}
	return s
}

// Concat concatenates schedules.
func Concat(parts ...model.Schedule) model.Schedule {
	var out model.Schedule
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Bursty produces bursts of correlated activity: each burst picks one
// processor and a mode (read burst or write burst) and issues a geometric
// number of requests from it (mean burstLen) before moving on. Bursts are
// the pattern under which dynamic allocation's saving-reads amortize best
// and its invalidations hurt most, depending on the mode mix.
func Bursty(rng *rand.Rand, n, bursts int, burstLen float64, pWriteBurst float64) model.Schedule {
	if n <= 0 {
		panic("workload: Bursty needs n > 0")
	}
	if burstLen <= 0 {
		panic("workload: Bursty needs burstLen > 0")
	}
	var sched model.Schedule
	for b := 0; b < bursts; b++ {
		p := model.ProcessorID(rng.Intn(n))
		write := rng.Float64() < pWriteBurst
		stop := 1 / (1 + burstLen)
		for {
			if write {
				sched = append(sched, model.W(p))
			} else {
				sched = append(sched, model.R(p))
			}
			if rng.Float64() < stop {
				break
			}
		}
	}
	return sched
}

// Interleave merges the schedules round-robin: one request from each in
// turn until all are exhausted. It models independent clients whose
// requests the concurrency control interleaves.
func Interleave(parts ...model.Schedule) model.Schedule {
	var out model.Schedule
	for i := 0; ; i++ {
		progressed := false
		for _, p := range parts {
			if i < len(p) {
				out = append(out, p[i])
				progressed = true
			}
		}
		if !progressed {
			return out
		}
	}
}
