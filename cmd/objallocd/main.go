// Command objallocd is the sharded allocation service daemon: the
// multi-object directory partitioned over independent shards, each
// running its own allocation engine (SA, DA, or the online adaptive
// SA/DA controller) behind a batched mailbox with
// admission control, served over HTTP.
//
// Usage:
//
//	objallocd [-shards 8] [-queue 256] [-batch 64] [-engine da]
//	          [-adaptive window=8,hysteresis=2]
//	          [-n 8] [-t 3] [-cc 0.25] [-cd 1] [-mobile]
//	          [-faults loss=0.1,delay=0.2] [-noretry]
//	          [-attempts 0] [-seed 0] [-journal dir]
//	          [-checkpoint 1024] [-chaos-panic 0]
//	          [-disk-faults writeerr=0.01,syncerr=0.01]
//	          [-addr 127.0.0.1:0] [-addrfile path] [-statsfile path]
//	          [-draintimeout 30s] [-metrics out.jsonl] [-pprof addr]
//	          [-trace out.jsonl] [-trace-deterministic] [-trace-sample 1]
//
// The HTTP API is POST /v1/batch (with optional traceparent
// propagation), GET /v1/stats, GET /v1/metrics (Prometheus text) and
// GET /v1/healthz (per-shard supervisor state). With -trace the daemon
// records request-scoped spans (admission, queue wait, engine service,
// billed protocol transitions) and streams them to the trace JSONL as
// requests complete, appending the summary line on drain — so a crash
// loses only in-flight requests' spans; -trace-deterministic buffers
// instead and zeroes the wall-clock fields so same-seed trace files are
// byte-identical at any -shards (see cmd/traceview for the analyzer).
//
// With -journal each shard group-commits a request journal
// (fsynced once per service round, checkpointed every -checkpoint
// records), and the directory is the service's state: startup replays
// whatever journals it holds, restoring every object's allocation
// scheme, adaptive-controller state and cumulative accounting, so a
// daemon restarted with the same flags — after SIGTERM or SIGKILL —
// continues exactly where the last fsync left it. A directory written
// under another -shards or other model flags is refused at startup,
// not overwritten; a fresh service takes a fresh directory. Repeat
// reads are served from the freshness table at zero exactly when the
// engine would bill them nothing (-engine da with -mobile). Shard loops
// run under a supervisor that recovers panics, rebuilds the shard from
// its journal and restarts it with capped backoff (-chaos-panic injects
// one such panic per shard for testing). -disk-faults injects seeded,
// deterministic disk faults under the journal (write errors, torn
// writes, fsync failures, ENOSPC streaks, stalls — see
// internal/diskfault); transient faults are recovered by journal
// rebuild, while a persistently failing disk fail-stops its shard,
// which then refuses requests with 503 + Retry-After and reports
// "failed" in /v1/healthz. The daemon exits nonzero after drain if any
// shard suffered a durability loss or its books did not balance.
// On SIGTERM or SIGINT the daemon drains gracefully: accepted requests
// complete, new ones are refused, journals are flushed and fsynced, the
// final stats are printed to stdout, and the process exits nonzero if
// any accepted request was lost (it never should be).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"objalloc/cmd/internal/modelflags"
	"objalloc/internal/obs"
	"objalloc/internal/server"
	"objalloc/internal/tracing"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("objallocd: ")
	if err := run(os.Args[1:], nil); err != nil {
		log.Fatal(err)
	}
}

// run is the daemon body; tests invoke it directly, receiving the bound
// address on ready and stopping it with a signal.
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("objallocd", flag.ContinueOnError)
	var (
		model        = modelflags.Bind(fs)
		queue        = fs.Int("queue", 256, "per-shard mailbox capacity (admission control bound)")
		batch        = fs.Int("batch", 64, "max requests per shard service round")
		journal      = fs.String("journal", "", "directory for per-shard request journals (group-committed once per service round; replayed on startup)")
		checkpoint   = fs.Int("checkpoint", 0, "journal checkpoint cadence in records, so replay is O(tail) (0 = default 1024)")
		chaosPanic   = fs.Int64("chaos-panic", 0, "panic each shard loop after this many serviced requests, exercising the supervisor (0 disables)")
		addr         = fs.String("addr", "127.0.0.1:0", "HTTP listen address")
		addrfile     = fs.String("addrfile", "", "write the bound address to this file once listening")
		statsfile    = fs.String("statsfile", "", "write the final stats JSON to this file on drain")
		drainTimeout = fs.Duration("draintimeout", 30*time.Second, "max time to wait for the graceful drain")
		metrics      = fs.String("metrics", "", "write instrumentation events and a final registry snapshot to this JSONL file")
		pprofAddr    = fs.String("pprof", "", "serve net/http/pprof and expvar on this address")
		traceFile    = fs.String("trace", "", "stream request trace spans to this JSONL file as requests complete, the summary line on drain (with -trace-deterministic: everything on drain)")
		traceDet     = fs.Bool("trace-deterministic", false, "zero wall-clock trace fields (same-seed traces byte-identical at any -shards)")
		traceSample  = fs.Float64("trace-sample", 1, "tail-sampling rate for unflagged requests (flagged ones are always kept)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := model.Config()
	if err != nil {
		return err
	}

	cli, err := obs.StartCLI(obs.CLIOptions{Metrics: *metrics, PprofAddr: *pprofAddr, Label: "objallocd"})
	if err != nil {
		return err
	}
	defer cli.Close()

	var tracer *tracing.Tracer
	var traceStream *os.File
	if *traceFile != "" {
		tcfg := tracing.Config{Deterministic: *traceDet, SampleRate: *traceSample}
		if !*traceDet {
			// Stream spans to the file as requests complete so a crash
			// loses only in-flight requests' spans; the summary line is
			// appended at drain. Deterministic mode buffers instead — its
			// canonical global sort needs every span before any is written.
			f, err := os.Create(*traceFile)
			if err != nil {
				return fmt.Errorf("trace file: %w", err)
			}
			traceStream = f
			tcfg.Stream = f
		}
		tracer = tracing.New(tcfg)
	} else if *traceDet || *traceSample != 1 {
		return fmt.Errorf("-trace-deterministic and -trace-sample require -trace")
	}

	cfg.Queue, cfg.Batch = *queue, *batch
	cfg.Journal, cfg.CheckpointEvery = *journal, *checkpoint
	cfg.PanicAfter = *chaosPanic
	cfg.Obs, cfg.Trace = cli.Obs(), tracer
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrfile != "" {
		if err := os.WriteFile(*addrfile, []byte(bound+"\n"), 0o644); err != nil {
			return err
		}
	}
	log.Printf("listening on %s (%d shards, engine %s, queue %d, batch %d)", bound, cfg.Shards, cfg.Engine, *queue, *batch)
	if ready != nil {
		ready <- bound
	}

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case s := <-sig:
		log.Printf("received %s, draining", s)
	case err := <-serveErr:
		return fmt.Errorf("http server: %w", err)
	}
	signal.Stop(sig)

	done := make(chan struct{})
	go func() {
		srv.Drain()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(*drainTimeout):
		return fmt.Errorf("drain did not complete within %s", *drainTimeout)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hs.Shutdown(shutdownCtx)

	if tracer != nil {
		f := traceStream
		if f == nil {
			var err error
			f, err = os.Create(*traceFile)
			if err != nil {
				return fmt.Errorf("trace file: %w", err)
			}
		}
		// Streaming mode already flushed the spans; WriteTo appends the
		// buffered ones (none when streaming) and the summary line.
		n, werr := tracer.WriteTo(f)
		if serr := f.Sync(); werr == nil {
			werr = serr
		}
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return fmt.Errorf("trace file: %w", werr)
		}
		log.Printf("trace: %d lines appended to %s", n, *traceFile)
	}

	st := srv.Stats()
	out, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if *statsfile != "" {
		if err := os.WriteFile(*statsfile, append(out, '\n'), 0o644); err != nil {
			return err
		}
	}
	if st.Accepted != st.Complete {
		return fmt.Errorf("drain lost requests: accepted %d, completed %d", st.Accepted, st.Complete)
	}
	if err := srv.DrainErr(); err != nil {
		return fmt.Errorf("durability loss: %w", err)
	}
	log.Printf("drained cleanly: %d accepted, %d completed, %d objects", st.Accepted, st.Complete, st.Objects)
	return nil
}
