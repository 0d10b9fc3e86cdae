// Command loadgen replays workload streams against the sharded
// allocation service — over HTTP against a running objallocd, or against
// an in-process server for soak and benchmark runs — and reports
// throughput, latency and the overload/drain outcomes.
//
// Usage:
//
//	loadgen -addr 127.0.0.1:8080 [-workload uniform:n=8,pwrite=0.3]
//	        [-objects 64] [-workers 4] [-requests 10000] [-duration 0]
//	        [-batch 32] [-seed 1] [-retrywindow 0]
//	loadgen -inproc [-shards 8] [-engine da] [-adaptive window=8] ...
//	        [-trace out.jsonl] [-trace-deterministic] (same workload flags)
//
// Both paths report throughput, per-batch latency, and end-to-end
// per-request latency percentiles (p50/p90/p99/max).
//
// Every HTTP batch carries a traceparent header derived
// deterministically from (seed, worker, per-worker batch sequence), so
// a tracing objallocd parents its spans under reproducible client trace
// IDs. In-process runs can trace directly: -trace hands the server a
// tracer and writes the canonical trace JSONL after the drain, and
// -trace-deterministic zeroes the wall-clock fields so same-seed files
// are byte-identical at any -shards/-workers.
//
// Workers own disjoint object partitions (object index mod workers), so
// each object's requests stay on one sequential path — the service's
// determinism contract. Every HTTP request carries a per-object sequence
// number (starting at 1), so a journaling daemon deduplicates retried
// batches idempotently. Overloaded batches retry after the server's
// hint; a draining server ends the run. With -retrywindow each batch
// additionally retries transport errors with capped jittered backoff for
// up to that long, so the run survives a daemon kill-and-restart window.
// The exit is nonzero if any accepted request was lost.
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

	"objalloc/internal/adaptive"
	"objalloc/internal/cost"
	"objalloc/internal/model"
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

type counters struct {
	sent      atomic.Uint64
	completed atomic.Uint64
	overloads atomic.Uint64
	errored   atomic.Uint64
}

func run(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "", "objallocd HTTP address (host:port)")
		inproc   = fs.Bool("inproc", false, "drive an in-process server instead of HTTP")
		spec     = fs.String("workload", "uniform:n=8,pwrite=0.3", "workload spec (see internal/workload)")
		objects  = fs.Int("objects", 64, "distinct objects")
		workers  = fs.Int("workers", 4, "concurrent workers (each owns objects index mod workers)")
		requests = fs.Int("requests", 10000, "total requests to send (split across workers)")
		duration = fs.Duration("duration", 0, "run for this long instead of a fixed request count")
		batchSz  = fs.Int("batch", 32, "requests per HTTP batch")
		seed     = fs.Int64("seed", 1, "workload seed (worker w uses seed+w)")
		retryWin = fs.Duration("retrywindow", 0, "retry each HTTP batch through transport errors for up to this long (0 = fail on the first transport error)")

		shards     = fs.Int("shards", 8, "in-process server: shards")
		queue      = fs.Int("queue", 256, "in-process server: per-shard queue")
		engineName = fs.String("engine", "da", "in-process server: engine (da, sa, adaptive)")
		adaptSpec  = fs.String("adaptive", "", "in-process server: adaptive-controller spec for -engine adaptive")
		n          = fs.Int("n", 8, "in-process server: processors")
		t          = fs.Int("t", 3, "in-process server: availability threshold")
		cc         = fs.Float64("cc", 0.25, "in-process server: control-message cost")
		cd         = fs.Float64("cd", 1, "in-process server: data-message cost")
		mobile     = fs.Bool("mobile", false, "in-process server: mobile model")
		traceFile  = fs.String("trace", "", "in-process server: write request trace spans to this JSONL file")
		traceDet   = fs.Bool("trace-deterministic", false, "in-process server: zero wall-clock trace fields (same-seed traces byte-identical at any -shards/-workers)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*addr == "") == !*inproc {
		return fmt.Errorf("exactly one of -addr or -inproc is required")
	}
	if *workers < 1 || *objects < 1 {
		return fmt.Errorf("-workers and -objects must be at least 1")
	}
	if *workers > *objects {
		*workers = *objects
	}
	if (*traceFile != "" || *traceDet) && !*inproc {
		return fmt.Errorf("-trace and -trace-deterministic require -inproc (against HTTP, trace on the daemon with objallocd -trace)")
	}
	if *retryWin > 0 && *inproc {
		return fmt.Errorf("-retrywindow requires -addr (the in-process path has no transport to retry)")
	}

	var do func(worker int, reqs []server.WireRequest) (int, bool, error)
	var finish func() error

	// Per-request end-to-end latencies: the in-process path times every
	// Server.Do individually; the HTTP path attributes each batch's round
	// trip to every request it completed (requests in a batch are
	// submitted together, so the round trip IS each one's end-to-end
	// latency). A bounded reservoir keeps duration-mode soaks O(1) memory.
	reqLats := newLatReservoir(1<<17, *seed)

	if *inproc {
		eng, err := server.ParseEngine(*engineName)
		if err != nil {
			return err
		}
		if *adaptSpec != "" && eng != server.EngineAdaptive {
			return fmt.Errorf("-adaptive requires -engine adaptive (got %s)", eng)
		}
		aspec, err := adaptive.ParseSpec(*adaptSpec)
		if err != nil {
			return err
		}
		m := cost.SC(*cc, *cd)
		if *mobile {
			m = cost.MC(*cc, *cd)
		}
		var tracer *tracing.Tracer
		if *traceFile != "" {
			tracer = tracing.New(tracing.Config{Deterministic: *traceDet})
		}
		srv, err := server.New(server.Config{
			Shards: *shards, Queue: *queue, Engine: eng, Adaptive: aspec, N: *n, T: *t, Model: m,
			Seed: *seed, Trace: tracer,
		})
		if err != nil {
			return err
		}
		do = func(_ int, reqs []server.WireRequest) (int, bool, error) {
			done := 0
			for _, wr := range reqs {
				q := model.R(model.ProcessorID(wr.Processor))
				if wr.Op == "w" {
					q = model.W(model.ProcessorID(wr.Processor))
				}
				t0 := time.Now()
				_, err := srv.Do(wr.Object, q)
				if err != nil {
					if ov, ok := err.(*server.Overloaded); ok {
						time.Sleep(ov.RetryAfter)
						return done, false, nil
					}
					if err == server.ErrDraining {
						return done, true, nil
					}
					// Service error (e.g. unreachable): consumed.
				}
				reqLats.add(time.Since(t0))
				done++
			}
			return done, false, nil
		}
		finish = func() error {
			srv.Drain()
			st := srv.Stats()
			if st.Accepted != st.Complete {
				return fmt.Errorf("server lost requests: accepted %d, completed %d", st.Accepted, st.Complete)
			}
			log.Printf("in-process server: %d accepted, %d completed, %d objects, cost %.1f",
				st.Accepted, st.Complete, st.Objects, st.Cost)
			if tracer != nil {
				f, err := os.Create(*traceFile)
				if err != nil {
					return fmt.Errorf("trace file: %w", err)
				}
				lines, werr := tracer.WriteTo(f)
				if serr := f.Sync(); werr == nil {
					werr = serr
				}
				if cerr := f.Close(); werr == nil {
					werr = cerr
				}
				if werr != nil {
					return fmt.Errorf("trace file: %w", werr)
				}
				log.Printf("trace: %d lines written to %s", lines, *traceFile)
			}
			return nil
		}
	} else {
		client := &server.Client{Base: "http://" + *addr, Seed: *seed}
		// Each batch carries a traceparent derived from (seed, worker,
		// per-worker batch sequence); workers touch only their own slot,
		// so no locking. A tracing daemon parents its spans under these
		// reproducible client IDs.
		batchSeq := make([]uint64, *workers)
		do = func(w int, reqs []server.WireRequest) (int, bool, error) {
			sc := tracing.DeriveRequest(*seed, fmt.Sprintf("loadgen-w%d", w), batchSeq[w])
			batchSeq[w]++
			t0 := time.Now()
			if *retryWin > 0 {
				// The retry window rides out a daemon restart: the tail is
				// resent through transport errors, and the per-object
				// sequence numbers make resent requests idempotent.
				ctx, cancel := context.WithTimeout(context.Background(), *retryWin)
				results, err := client.BatchAllCtx(ctx, sc, reqs)
				cancel()
				if err != nil {
					return len(results), false, err
				}
				reqLats.addN(time.Since(t0), len(results))
				return len(results), len(results) < len(reqs), nil
			}
			resp, err := client.BatchTraced(sc, reqs)
			if err != nil {
				return 0, false, err
			}
			reqLats.addN(time.Since(t0), resp.Done)
			if resp.RetryAfterMS > 0 {
				time.Sleep(time.Duration(resp.RetryAfterMS) * time.Millisecond)
			}
			return resp.Done, resp.Draining, nil
		}
		finish = func() error {
			st, err := client.Stats()
			if err != nil {
				return fmt.Errorf("final stats: %w", err)
			}
			log.Printf("server stats: %d accepted, %d completed, %d rejected",
				st.Accepted, st.Complete, st.Rejected)
			return nil
		}
	}

	perWorker := (*requests + *workers - 1) / *workers
	deadline := time.Time{}
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}

	var cnt counters
	var latMu sync.Mutex
	var latencies []time.Duration
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
				cnt.errored.Add(1)
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
			sent := 0
			si := 0
			for {
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
				for len(batch) > 0 {
					t0 := time.Now()
					done, draining, err := do(w, batch)
					if err != nil {
						log.Printf("worker %d: %v", w, err)
						cnt.errored.Add(1)
						return
					}
					latMu.Lock()
					latencies = append(latencies, time.Since(t0))
					latMu.Unlock()
					cnt.sent.Add(uint64(len(batch)))
					cnt.completed.Add(uint64(done))
					sent += done
					if done < len(batch) {
						cnt.overloads.Add(1)
						if draining {
							return
						}
					}
					batch = batch[done:]
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	completed := cnt.completed.Load()
	fmt.Printf("loadgen: %d requests completed in %s (%.0f req/s), %d overload backoffs\n",
		completed, elapsed.Round(time.Millisecond), float64(completed)/elapsed.Seconds(), cnt.overloads.Load())
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		fmt.Printf("batch latency: p50 %s  p90 %s  p99 %s  max %s\n",
			latencies[len(latencies)/2].Round(time.Microsecond),
			latencies[len(latencies)*90/100].Round(time.Microsecond),
			latencies[len(latencies)*99/100].Round(time.Microsecond),
			latencies[len(latencies)-1].Round(time.Microsecond))
	}
	if n, p50, p90, p99, max := reqLats.percentiles(); n > 0 {
		fmt.Printf("request latency: p50 %s  p90 %s  p99 %s  max %s (%d requests)\n",
			p50.Round(time.Microsecond), p90.Round(time.Microsecond),
			p99.Round(time.Microsecond), max.Round(time.Microsecond), n)
	}
	if err := finish(); err != nil {
		return err
	}
	if cnt.errored.Load() > 0 {
		return fmt.Errorf("%d workers errored", cnt.errored.Load())
	}
	return nil
}

// latReservoir keeps a uniform bounded sample of per-request latencies
// (Vitter's reservoir sampling) plus the exact count and maximum, so
// percentile reporting costs O(capacity) memory even on unbounded
// -duration soaks.
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

func (r *latReservoir) add(d time.Duration) { r.addN(d, 1) }

// addN records n requests that each took d (a batch round trip serviced n
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

// percentiles returns the request count and the p50/p90/p99/max of the
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
