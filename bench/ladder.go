package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"objalloc/internal/competitive"
	"objalloc/internal/cost"
	"objalloc/internal/dom"
	"objalloc/internal/model"
	"objalloc/internal/multiobject"
	"objalloc/internal/obs"
	"objalloc/internal/opt"
	"objalloc/internal/server"
	"objalloc/internal/tracing"
)

// The traced run. It first drives the workload itself in alternating
// untraced and traced segments (their ratio is the cost of observing),
// then climbs the ladder: the same generated request stream replayed
// in-process through successively outer entry points, one time slot
// per rung. A rung's self time is its per-op time minus the rung
// beneath it. Every rung is measured in every traced run; the serving
// rungs take the workload's shape (sweep_offline borrows
// serve_volatile's).

const (
	passShare    = 0.4 // of -seconds, for the workload's own pass
	passSegments = 8   // alternating untraced, traced
	ladderSlots  = 17  // time slots the rungs share
)

// childPass is what one traced pass against an objallocd child yields.
type childPass struct {
	attempted, failed int
	// p50 is the untraced segments' median batch latency in ms as
	// measured, which the raw rungs are summed against; refP50 is the
	// same in reference time, comparable to the end-to-end op_p50_ms.
	p50, refP50    float64
	overhead       float64 // traced ÷ untraced ops/s
	cpuMSPerKop    float64
	batchSizeMean  float64
	queueDepthMean float64
	rejectedPerOp  float64
	commitsPerOp   float64
	bytesPerOp     float64
	problems       []string
}

// histogramMean is Σsum ÷ Σcount over the ops histograms whose name
// ends in suffix (one per shard).
func histogramMean(ops obs.Snapshot, suffix string) float64 {
	var sum, count int64
	for _, h := range ops.Histograms {
		if strings.HasSuffix(h.Name, suffix) {
			sum += h.Sum
			count += h.Count
		}
	}
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count)
}

func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// alternate drives next for d in passSegments segments, recording
// spans (by pointing *slot at rec) in every second one, and returns the
// untraced and the traced half. Alternating lets the box's drift hit
// both halves alike, so their ratio is the cost of observing.
func alternate(ctx context.Context, d time.Duration, next op, ref func() float64, slot **recorder, rec *recorder) (halves [2]timed) {
	for seg := 0; seg < passSegments; seg++ {
		mode := seg % 2
		*slot = [2]*recorder{nil, rec}[mode]
		t := drive(ctx, d/passSegments, next, ref)
		halves[mode].lats = append(halves[mode].lats, t.lats...)
		halves[mode].raw = append(halves[mode].raw, t.raw...)
		halves[mode].rawWall += t.rawWall
	}
	*slot = nil
	return halves
}

// rawOpsPerS is a half's throughput as measured, in ops of opSize
// requests.
func (t timed) rawOpsPerS(opSize int) float64 {
	return float64(len(t.raw)*opSize) / t.rawWall.Seconds()
}

// servePass drives a child daemon of the given shape for d, recording
// spans in every second segment.
func (b *bench) servePass(ctx context.Context, sh shape, seed int64, d time.Duration, rec *recorder) (childPass, error) {
	var p childPass
	dmn, s, err := b.startServing(sh, seed, "traced")
	if err != nil {
		return p, err
	}
	defer dmn.close()
	defer s.close()
	warmUp(ctx, warmup, s.roundTrip)
	warmFailed := s.failed
	pid := dmn.cmd.Process.Pid
	cpu0, _ := cpuSeconds(pid) // a diagnostic; 0 on error

	halves := alternate(ctx, d, s.roundTrip, sh.reference(), &s.conn.rec, rec)
	cpu1, _ := cpuSeconds(pid)
	timedOps := (len(halves[0].lats) + len(halves[1].lats)) * sh.batch

	// Scraped only now: a /v1/stats scrape switches the daemon's
	// per-request latency clock on. Every reply is in, so the shards sit
	// idle and the live round counts are final — and free of the empty
	// round each shard adds when the drain closes its mailbox.
	full, err := s.client.StatsFull()
	if err != nil {
		p.problems = append(p.problems, "stats scrape: "+err.Error())
	}
	st, bad := drainAndVerify(dmn, s, seed)
	p.problems = append(p.problems, bad...)
	if warmFailed > 0 {
		p.problems = append(p.problems, fmt.Sprintf("%d requests failed during warm-up", warmFailed))
	}

	p.attempted, p.failed = timedOps, s.failed-warmFailed
	if len(p.problems) > 0 {
		p.failed = p.attempted
	}
	p.p50, p.refP50 = median(halves[0].raw), median(halves[0].lats)
	p.overhead = halves[1].rawOpsPerS(sh.batch) / halves[0].rawOpsPerS(sh.batch)
	p.cpuMSPerKop = (cpu1 - cpu0) * 1e6 / float64(timedOps)
	p.batchSizeMean = histogramMean(full.Ops, ".batch_size")
	p.queueDepthMean = histogramMean(full.Ops, ".queue_depth")
	if st.Complete > 0 {
		p.rejectedPerOp = float64(st.Rejected) / float64(st.Complete)
		if sh.journaled {
			var rounds uint64
			for _, ss := range full.Stats.PerShard {
				rounds += ss.Rounds
			}
			p.commitsPerOp = float64(rounds) / float64(st.Complete)
			size, err := dirSize(dmn.journal)
			if err != nil {
				p.problems = append(p.problems, "journal size: "+err.Error())
			}
			p.bytesPerOp = float64(size) / float64(st.Complete)
		}
	}
	return p, nil
}

// sample times fn in groups of group calls for about d. It returns the
// median per-call time in ns over the groups and the heap allocations
// per call (process-wide, so a server's shard goroutines count).
func sample(ctx context.Context, d time.Duration, group int, fn func()) (ns, allocs float64) {
	var per []float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for time.Since(start) < d && ctx.Err() == nil {
		t0 := time.Now()
		for i := 0; i < group; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t0))/float64(group))
	}
	runtime.ReadMemStats(&m1)
	return median(per), float64(m1.Mallocs-m0.Mallocs) / float64(len(per)*group)
}

// ladder holds one climb's inputs and the failures its rungs saw.
type ladder struct {
	b        *bench
	ctx      context.Context
	seed     int64
	sh       shape
	slot     time.Duration
	rec      *recorder
	slab     []server.WireRequest // the stream's prefix, cycled by the per-op rungs
	problems []string
}

func (l *ladder) fail(rung string, err error) {
	l.problems = append(l.problems, fmt.Sprintf("rung %s: %v", rung, err))
}

// rung runs fn under a span named after the rung.
func (l *ladder) rung(name string, fn func()) {
	id := l.rec.root("rung:"+name, 0)
	fn()
	l.rec.end(id)
}

// doRung measures Server.Do (one caller) on a server built from cfg and
// returns ns and allocations per op, and the drained server's stats.
func (l *ladder) doRung(name string, cfg server.Config, group int) (ns, allocs float64, st server.Stats) {
	l.rung(name, func() {
		srv, err := server.New(cfg)
		if err != nil {
			l.fail(name, err)
			return
		}
		defer srv.Close()
		i, failed := 0, 0
		ns, allocs = sample(l.ctx, l.slot, group, func() {
			wr := l.slab[i%len(l.slab)]
			i++
			if _, err := srv.DoTraced(wr.Object, modelRequest(wr), tracing.SpanContext{}); err != nil {
				failed++
			}
		})
		srv.Drain()
		if err := srv.DrainErr(); err != nil {
			l.fail(name, err)
		}
		if st = srv.Stats(); failed > 0 || st.Accepted != st.Complete {
			l.fail(name, fmt.Errorf("%d of %d requests failed, accepted %d completed %d", failed, i, st.Accepted, st.Complete))
		}
	})
	return ns, allocs, st
}

// handleSpans wraps the server's handler in the bench's own timing
// span, parented to the round trip that carried the request.
func handleSpans(rec *recorder, conn *tracedConn, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := rec.child("http.handle", int(conn.trip.Load()))
		h.ServeHTTP(w, r)
		rec.end(id)
	})
}

// handlerRung measures json.Marshal of the batch (the client's encode)
// and Handler().ServeHTTP on a recorder with that pre-encoded body, per
// batch, plus the handler's allocations per batch.
func (l *ladder) handlerRung() (encodeNS, handleNS, allocs float64) {
	const name = "http.handler"
	l.rung(name, func() {
		srv, err := server.New(serverConfig("", false))
		if err != nil {
			l.fail(name, err)
			return
		}
		defer srv.Close()
		h := srv.Handler()
		g := newGenerator(l.seed)
		batch := make([]server.WireRequest, l.sh.batch)
		next := func() (*httptest.ResponseRecorder, *http.Request, time.Duration) {
			g.fill(batch)
			t0 := time.Now()
			body, err := json.Marshal(server.BatchRequest{Requests: batch})
			enc := time.Since(t0)
			if err != nil {
				l.fail(name, err)
			}
			return httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body)), enc
		}
		check := func(rw *httptest.ResponseRecorder) {
			var resp server.BatchResponse
			if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil || rw.Code != http.StatusOK || resp.Done != len(batch) {
				l.fail(name, fmt.Errorf("HTTP %d, done %d of %d, %v", rw.Code, resp.Done, len(batch), err))
			}
		}

		var encs, handles []float64
		start := time.Now()
		for time.Since(start) < l.slot && l.ctx.Err() == nil && len(l.problems) == 0 {
			rw, req, enc := next()
			t0 := time.Now()
			h.ServeHTTP(rw, req)
			handles = append(handles, float64(time.Since(t0)))
			encs = append(encs, float64(enc))
			check(rw)
		}
		encodeNS, handleNS = median(encs), median(handles)

		// Allocations: a short run over pre-built requests, so only the
		// handler's own are counted.
		const runs = 200
		rws := make([]*httptest.ResponseRecorder, runs)
		reqs := make([]*http.Request, runs)
		for i := range rws {
			rws[i], reqs[i], _ = next()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := range rws {
			h.ServeHTTP(rws[i], reqs[i])
		}
		runtime.ReadMemStats(&m1)
		allocs = float64(m1.Mallocs-m0.Mallocs) / runs
	})
	return encodeNS, handleNS, allocs
}

// loopbackRung measures Client.Batch against an in-process loopback
// HTTP server built from cfg: median ms per batch.
func (l *ladder) loopbackRung(name string, cfg server.Config) (p50 float64) {
	l.rung(name, func() {
		srv, err := server.New(cfg)
		if err != nil {
			l.fail(name, err)
			return
		}
		defer srv.Close()
		s := newSession("", l.seed, l.sh.batch)
		defer s.close()
		s.conn.rec = l.rec
		ts := httptest.NewServer(handleSpans(l.rec, s.conn, srv.Handler()))
		defer ts.Close()
		s.client.Base = ts.URL
		t := drive(l.ctx, l.slot, s.roundTrip, nil)
		if s.failed > 0 {
			l.fail(name, fmt.Errorf("%d of %d requests failed", s.failed, s.sent))
		}
		p50 = median(t.lats)
	})
	return p50
}

// replayRung times server.ReplayDir over the journal a Do rung wrote;
// the replayed accounting must equal that drained server's.
func (l *ladder) replayRung(dir string, live server.Stats) (ms, recordsPerS float64) {
	const name = "recovery.replay"
	l.rung(name, func() {
		t0 := time.Now()
		st, err := server.ReplayDir(serverConfig(dir, false))
		elapsed := time.Since(t0)
		if err != nil {
			l.fail(name, err)
			return
		}
		if diff := accountingDiff(st, live); diff != "" {
			l.fail(name, fmt.Errorf("replay diverges from live stats: %s", diff))
		}
		ms = float64(elapsed) / 1e6
		recordsPerS = float64(st.Complete) / elapsed.Seconds()
	})
	return ms, recordsPerS
}

// climb measures every rung and returns the per-layer metrics; child is
// the pass against the objallocd child at the ladder's shape.
func (l *ladder) climb(child childPass) map[string]float64 {
	ctx, slot := l.ctx, l.slot
	g := newGenerator(l.seed)
	l.slab = make([]server.WireRequest, 1<<14)
	g.fill(l.slab)
	reqs := make([]model.Request, len(l.slab))
	for i, wr := range l.slab {
		reqs[i] = modelRequest(wr)
	}

	// Engine step and directory apply: the innermost rungs.
	stepRung := func(name string, f dom.Factory) (ns float64) {
		l.rung(name, func() {
			a, err := f(model.FullSet(3), 3)
			if err != nil {
				l.fail(name, err)
				return
			}
			i := 0
			ns, _ = sample(ctx, slot, 4096, func() { a.Step(reqs[i%len(reqs)]); i++ })
		})
		return ns
	}
	daNS, saNS := stepRung("dom.step", dom.DynamicFactory), stepRung("dom.sa_step", dom.StaticFactory)
	var applyNS float64
	l.rung("multiobject.apply", func() {
		db, err := multiobject.Open(multiobject.Config{Factory: dom.DynamicFactory, T: 3, Model: cost.SC(0.25, 1)})
		if err != nil {
			l.fail("multiobject.apply", err)
			return
		}
		i := 0
		applyNS, _ = sample(ctx, slot, 1024, func() {
			if _, err := db.Apply(l.slab[i%len(l.slab)].Object, reqs[i%len(reqs)]); err != nil {
				l.fail("multiobject.apply", err)
			}
			i++
		})
	})

	// Server.Do: volatile, traced, and the three journal variants (on
	// tmpfs, on tmpfs behind the device model, on the sandbox's disk).
	doNS, doAllocs, _ := l.doRung("server.do", serverConfig("", false), 32)
	traced := func(rate float64) server.Config {
		cfg := serverConfig("", false)
		// Streamed, as objallocd -trace does; the sink is free.
		cfg.Trace = tracing.New(tracing.Config{SampleRate: rate, Stream: io.Discard})
		return cfg
	}
	sampledNS, _, _ := l.doRung("server.do_traced_1pct", traced(0.01), 32)
	fullNS, _, _ := l.doRung("server.do_traced_full", traced(1), 32)

	tmp := l.b.scratch.tmp
	journalDir, deviceDir := filepath.Join(tmp, "ladder-journal"), filepath.Join(tmp, "ladder-device")
	diskDir, loopDir := filepath.Join(l.b.scratch.dir, "ladder-disk"), filepath.Join(tmp, "ladder-loopback")
	journalNS, _, journaled := l.doRung("server.do_journal", serverConfig(journalDir, false), 32)
	replayMS, replayRate := l.replayRung(journalDir, journaled)
	deviceNS, _, _ := l.doRung("server.do_journal_device", serverConfig(deviceDir, true), 4)
	diskNS, _, _ := l.doRung("server.do_journal_disk", serverConfig(diskDir, false), 4)

	// HTTP: the handler on a recorder, then a real loopback connection.
	encodeNS, handleNS, handleAllocs := l.handlerRung()
	loopMS := l.loopbackRung("http.loopback", serverConfig("", false))
	shapeLoopMS := loopMS
	if l.sh.journaled {
		shapeLoopMS = l.loopbackRung("http.loopback_device", serverConfig(loopDir, true))
	}
	for _, dir := range []string{journalDir, deviceDir, diskDir, loopDir} {
		os.RemoveAll(dir)
	}

	// Offline: one cell, one OPT solve, and the serial against the
	// default-parallelism sweep (alternated so drift hits both alike).
	battery := competitive.DefaultBattery()
	scheds, initial := battery.Build(), battery.Initial()
	var cellNS, solveNS, serialNS, parallelNS float64
	l.rung("competitive.cell", func() {
		m := cost.SC(0.5, 1.1)
		cellNS, _ = sample(ctx, slot, 1, func() {
			for _, f := range []dom.Factory{dom.StaticFactory, dom.DynamicFactory} {
				if _, err := competitive.WorstRatioContext(ctx, m, f, scheds, initial, battery.T); err != nil {
					l.fail("competitive.cell", err)
				}
			}
		})
	})
	l.rung("opt.solve", func() {
		m, i := cost.SC(0.5, 1.1), 0
		solveNS, _ = sample(ctx, slot, len(scheds), func() {
			if _, err := opt.SolveCostContext(ctx, m, scheds[i%len(scheds)], initial, battery.T); err != nil {
				l.fail("opt.solve", err)
			}
			i++
		})
	})
	l.rung("engine.sweep", func() {
		var per [2][]float64
		start := time.Now()
		for rep := 0; time.Since(start) < 2*slot && ctx.Err() == nil; rep++ {
			for mode, parallelism := range []int{1, 0} {
				t0 := time.Now()
				if _, err := competitive.Sweep(ctx, sweepSpec(l.seed, rep, parallelism)); err != nil {
					l.fail("engine.sweep", err)
				}
				per[mode] = append(per[mode], float64(time.Since(t0)))
			}
		}
		serialNS, parallelNS = median(per[0]), median(per[1])
	})

	// The ladder: per-op rungs times the batch size, plus per-batch
	// rungs, should add up to the child daemon's untraced median.
	batch := float64(l.sh.batch)
	perOpNS := doNS
	if l.sh.journaled {
		perOpNS = deviceNS
	}
	codecNS := (handleNS - batch*doNS) / batch
	transportNS := loopMS*1e6 - handleNS
	boundaryNS := (child.p50 - shapeLoopMS) * 1e6
	sumMS := (batch*(perOpNS+codecNS) + transportNS + boundaryNS) / 1e6

	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	return map[string]float64{
		"dom.step_ns":                     daNS,
		"dom.sa_step_ns":                  saNS,
		"multiobject.apply_ns":            applyNS,
		"server.do_ns":                    doNS,
		"server.self_ns":                  doNS - applyNS,
		"server.do_allocs_per_op":         doAllocs,
		"server.batch_size_mean":          child.batchSizeMean,
		"server.queue_depth_mean":         child.queueDepthMean,
		"server.rejected_per_op":          child.rejectedPerOp,
		"journal.commit_us":               (journalNS - doNS) / 1e3,
		"journal.stall_us":                (deviceNS - journalNS) / 1e3,
		"journal.commits_per_op":          child.commitsPerOp,
		"journal.bytes_per_op":            child.bytesPerOp,
		"journal.real_fsync_us":           (diskNS - journalNS) / 1e3,
		"http.codec_us_per_op":            codecNS / 1e3,
		"http.allocs_per_op":              handleAllocs/batch - doAllocs,
		"http.transport_us_per_batch":     transportNS / 1e3,
		"client.encode_us_per_batch":      encodeNS / 1e3,
		"objallocd.boundary_us_per_batch": boundaryNS / 1e3,
		"objallocd.cpu_ms_per_kop":        child.cpuMSPerKop,
		"recovery.replay_records_per_s":   replayRate,
		"recovery.replay_ms":              replayMS,
		"tracing.sampled1pct_ratio":       ratio(sampledNS, doNS),
		"tracing.full_ratio":              ratio(fullNS, doNS),
		"competitive.cell_ms":             cellNS / 1e6,
		"opt.solve_us":                    solveNS / 1e3,
		"engine.serial_sweep_ms":          serialNS / 1e6,
		"engine.parallel_speedup":         ratio(serialNS, parallelNS),
		"bench.ladder_sum_ms":             sumMS,
		"bench.ladder_unexplained":        math.Abs(ratio(sumMS, child.p50) - 1),
	}
}

// runTraced is one traced run of any workload.
func (b *bench) runTraced(ctx context.Context, name string, seed int64, seconds time.Duration) (result, error) {
	rec := newRecorder()
	pass := time.Duration(passShare * float64(seconds))
	rest := seconds - pass
	sh, serving := shapes[name]

	var res result
	var child childPass
	var overhead float64
	var err error
	if serving {
		if child, err = b.servePass(ctx, sh, seed, pass, rec); err != nil {
			return res, err
		}
		res.Attempted, res.Failed, res.problems = child.attempted, child.failed, child.problems
		overhead = child.overhead
		res.note = fmt.Sprintf("child pass: untraced p50 %.3f ms as measured, %.3f ms in reference time (compare op_p50_ms)", child.p50, child.refP50)
	} else {
		s := &sweeper{seed: seed}
		warmUp(ctx, warmup, s.once)
		warmFailed := s.failed
		halves := alternate(ctx, pass, s.once, cpuSpeed, &s.rec, rec)
		res.problems = s.verify(ctx)
		if warmFailed > 0 {
			res.problems = append(res.problems, fmt.Sprintf("%d sweeps failed during warm-up", warmFailed))
		}
		res.Attempted, res.Failed = len(halves[0].lats)+len(halves[1].lats), s.failed-warmFailed
		overhead = halves[1].rawOpsPerS(1) / halves[0].rawOpsPerS(1)
		// No server layer runs in this workload; its serving rungs take
		// serve_volatile's shape, from a short child pass of their own.
		sh = shapes["serve_volatile"]
		slice := rest / 5
		rest -= slice
		if child, err = b.servePass(ctx, sh, seed, slice, nil); err != nil {
			return res, err
		}
		res.problems = append(res.problems, child.problems...)
		res.note = fmt.Sprintf("%d sweeps in the pass; serving rungs at serve_volatile's shape", res.Attempted)
	}

	l := &ladder{b: b, ctx: ctx, seed: seed, sh: sh, slot: rest / ladderSlots, rec: rec}
	values := l.climb(child)
	values["bench.trace_overhead_ratio"] = overhead
	res.Metrics = withUnits(perLayerUnits, values)
	res.problems = append(res.problems, l.problems...)
	if len(res.problems) > 0 {
		// A failed check, in the pass or on any rung, fails the run.
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0 && ctx.Err() == nil

	self := selfTimes(rec.spans)
	if err := rec.writeFile(tracePath(name)); err != nil {
		return res, err
	}
	res.note += fmt.Sprintf("; %d spans in %s; self time ms:", len(rec.spans), tracePath(name))
	for _, n := range []string{"batch", "client.encode", "http.roundtrip", "http.handle", "sweep"} {
		if ns, ok := self[n]; ok {
			res.note += fmt.Sprintf(" %s %.1f", n, float64(ns)/1e6)
		}
	}
	return res, nil
}
