// Command loadgen replays workload streams against a running objallocd
// over HTTP and reports throughput, latency and the daemon's admission
// counts.
//
// Usage:
//
//	loadgen -addr 127.0.0.1:8080 [-workload uniform:n=8,pwrite=0.3]
//	        [-objects 64] [-workers 4] [-requests 10000] [-duration 0]
//	        [-batch 32] [-seed 1] [-retrywindow 10s]
//
// It reports throughput, per-batch latency and end-to-end per-request
// latency percentiles (p50/p90/p99/max), then the daemon's accepted,
// completed and rejected counts. The server's model, shards, engine and
// tracing are objallocd's flags; a library caller that wants the service
// without HTTP uses objalloc.NewServer and Server.Do.
//
// Workers own disjoint object partitions (object index mod workers), so
// each object's requests stay on one sequential path — the service's
// determinism contract. Every request carries a per-object sequence
// number (starting at 1), so a journaling daemon deduplicates resent
// requests idempotently.
//
// Every batch goes through server.Client.BatchAllCtx under a context of
// -retrywindow (default 10s; a value ≤ 0 is refused). Inside that window
// an overloaded batch's unserviced tail is resent after the server's
// hint, and transport errors are retried with capped jittered backoff,
// so a run survives a daemon kill-and-restart. A draining daemon ends the
// worker; a fail-stopped shard, a refused batch or an expired window is
// an error, and the exit is nonzero. Each logical batch carries one
// traceparent, derived from (seed, worker, per-worker batch sequence), so
// a resent tail stays under its batch's client span, and a batch's
// latency is its whole submission, retries included. The per-request
// latency of a request is the latency of the batch that carried it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"objalloc/internal/server"
	"objalloc/internal/tracing"
	"objalloc/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// reservoirCap bounds each latency sample, so -duration soaks run in
// O(1) memory.
const reservoirCap = 1 << 17

func run(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "", "objallocd HTTP address (host:port)")
		spec     = fs.String("workload", "uniform:n=8,pwrite=0.3", "workload spec (see internal/workload)")
		objects  = fs.Int("objects", 64, "distinct objects")
		workers  = fs.Int("workers", 4, "concurrent workers (each owns objects index mod workers)")
		requests = fs.Int("requests", 10000, "total requests to send (split across workers)")
		duration = fs.Duration("duration", 0, "run for this long instead of a fixed request count")
		batchSz  = fs.Int("batch", 32, "requests per HTTP batch")
		seed     = fs.Int64("seed", 1, "workload seed (worker w uses seed+w)")
		retryWin = fs.Duration("retrywindow", 10*time.Second, "time each batch may take, resending through overload and transport errors (must be > 0)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *addr == "":
		return fmt.Errorf("-addr is required")
	case *workers < 1 || *objects < 1 || *batchSz < 1:
		return fmt.Errorf("-workers, -objects and -batch must be at least 1")
	case *retryWin <= 0:
		return fmt.Errorf("-retrywindow must be positive, got %s", *retryWin)
	}
	if *workers > *objects {
		*workers = *objects
	}

	client := &server.Client{Base: "http://" + *addr, Seed: *seed}
	// A batch's round trip is the end-to-end latency of every request it
	// completed: the requests are submitted together.
	batchLats := newLatReservoir(reservoirCap, *seed)
	reqLats := newLatReservoir(reservoirCap, *seed)

	perWorker := (*requests + *workers - 1) / *workers
	deadline := time.Time{}
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}

	var completed, errored atomic.Uint64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			sched, err := workload.FromSpec(rng, *spec)
			if err != nil {
				log.Printf("worker %d: %v", w, err)
				errored.Add(1)
				return
			}
			if len(sched) == 0 {
				return
			}
			// The worker's objects: indices ≡ w (mod workers).
			var names []string
			for o := w; o < *objects; o += *workers {
				names = append(names, fmt.Sprintf("obj-%d", o))
			}
			// Per-object sequence numbers (the worker owns its objects, so
			// a local map is the authoritative arrival order): a journaling
			// daemon uses them to deduplicate resent batches.
			seqs := make(map[string]uint64)
			trace := fmt.Sprintf("loadgen-w%d", w)
			sent := 0
			for si, batchSeq := 0, uint64(0); ; batchSeq++ {
				if deadline.IsZero() {
					if sent >= perWorker {
						return
					}
				} else if time.Now().After(deadline) {
					return
				}
				size := *batchSz
				if deadline.IsZero() && perWorker-sent < size {
					size = perWorker - sent
				}
				batch := make([]server.WireRequest, 0, size)
				for len(batch) < size {
					q := sched[si%len(sched)]
					op := "r"
					if q.IsWrite() {
						op = "w"
					}
					name := names[si%len(names)]
					seqs[name]++
					batch = append(batch, server.WireRequest{
						Object:    name,
						Op:        op,
						Processor: int(q.Processor),
						Seq:       seqs[name],
					})
					si++
				}
				sc := tracing.DeriveRequest(*seed, trace, batchSeq)
				ctx, cancel := context.WithTimeout(context.Background(), *retryWin)
				t0 := time.Now()
				results, err := client.BatchAllCtx(ctx, sc, batch)
				lat := time.Since(t0)
				cancel()
				completed.Add(uint64(len(results)))
				if err != nil {
					log.Printf("worker %d: %v", w, err)
					errored.Add(1)
					return
				}
				batchLats.addN(lat, 1)
				reqLats.addN(lat, len(results))
				sent += len(results)
				if len(results) < len(batch) {
					return // the daemon is draining
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	done := completed.Load()
	fmt.Printf("loadgen: %d requests completed in %s (%.0f req/s)\n",
		done, elapsed.Round(time.Millisecond), float64(done)/elapsed.Seconds())
	if n, p50, p90, p99, max := batchLats.percentiles(); n > 0 {
		fmt.Printf("batch latency: p50 %s  p90 %s  p99 %s  max %s\n",
			p50.Round(time.Microsecond), p90.Round(time.Microsecond),
			p99.Round(time.Microsecond), max.Round(time.Microsecond))
	}
	if n, p50, p90, p99, max := reqLats.percentiles(); n > 0 {
		fmt.Printf("request latency: p50 %s  p90 %s  p99 %s  max %s (%d requests)\n",
			p50.Round(time.Microsecond), p90.Round(time.Microsecond),
			p99.Round(time.Microsecond), max.Round(time.Microsecond), n)
	}
	if n := errored.Load(); n > 0 {
		return fmt.Errorf("%d workers errored", n)
	}
	st, err := client.Stats()
	if err != nil {
		return fmt.Errorf("final stats: %w", err)
	}
	log.Printf("server stats: %d accepted, %d completed, %d rejected",
		st.Accepted, st.Complete, st.Rejected)
	return nil
}

// latReservoir keeps a uniform bounded sample of latencies (Vitter's
// reservoir sampling) plus the exact count and maximum, so percentile
// reporting costs O(capacity) memory even on unbounded -duration soaks.
type latReservoir struct {
	mu   sync.Mutex
	rng  *rand.Rand
	seen uint64
	max  time.Duration
	buf  []time.Duration
	cap  int
}

func newLatReservoir(capacity int, seed int64) *latReservoir {
	return &latReservoir{rng: rand.New(rand.NewSource(seed)), cap: capacity}
}

// addN records n samples that each took d (a batch round trip serviced n
// requests submitted together).
func (r *latReservoir) addN(d time.Duration, n int) {
	if n <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if d > r.max {
		r.max = d
	}
	for i := 0; i < n; i++ {
		r.seen++
		if len(r.buf) < r.cap {
			r.buf = append(r.buf, d)
			continue
		}
		if j := r.rng.Int63n(int64(r.seen)); j < int64(r.cap) {
			r.buf[j] = d
		}
	}
}

// percentiles returns the sample count and the p50/p90/p99/max of the
// sample. The maximum is exact, not sampled.
func (r *latReservoir) percentiles() (n uint64, p50, p90, p99, max time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen == 0 {
		return 0, 0, 0, 0, 0
	}
	sorted := make([]time.Duration, len(r.buf))
	copy(sorted, r.buf)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(sorted)))
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return r.seen, at(0.50), at(0.90), at(0.99), r.max
}
