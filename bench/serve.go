package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"objalloc/internal/cost"
	"objalloc/internal/diskfault"
	"objalloc/internal/dom"
	"objalloc/internal/multiobject"
	"objalloc/internal/server"
	"objalloc/internal/stats"
)

// shape is what distinguishes the serving workloads: the wire batch
// size and whether the daemon journals (onto the modelled device).
type shape struct {
	batch     int
	journaled bool
}

// reference is the box-speed control for the shape (ref.go): a
// journaled shape spends its time asleep on the device, the volatile
// one is CPU-bound.
func (sh shape) reference() func() float64 {
	if sh.journaled {
		return timerSpeed
	}
	return cpuSpeed
}

var shapes = map[string]shape{
	"serve_volatile":       {batch: 32},
	"serve_durable":        {batch: 32, journaled: true},
	"serve_durable_single": {batch: 1, journaled: true},
}

// Set-up is rehearsed setupRounds times per run, each with its own
// fresh daemon and a fixed warm-up at the workload's own load, and the
// median is reported: the fixed part keeps the metric steady while a
// set-up regression still shows additively.
const (
	setupRounds = 3
	warmup      = time.Second
)

// serverConfig mirrors daemonFlags for the in-process rungs and for
// server.ReplayDir.
func serverConfig(journal string, device bool) server.Config {
	cfg := server.Config{Shards: 2, N: 8, T: 3, Engine: server.EngineDA, Journal: journal}
	if device {
		plan, err := diskfault.ParsePlan(deviceModel)
		if err != nil {
			panic(err) // deviceModel is a constant
		}
		cfg.DiskFaults = &plan
	}
	return cfg
}

// tracedConn is the client's transport. With a recorder it splits each
// Client.Batch call into client.encode (call start to request sent) and
// http.roundtrip; without one it only forwards.
type tracedConn struct {
	base  *http.Transport
	rec   *recorder
	req   int64
	batch int          // the open batch span
	trip  atomic.Int64 // the open http.roundtrip span, read by handleSpans
}

func (t *tracedConn) RoundTrip(r *http.Request) (*http.Response, error) {
	if t.rec == nil {
		return t.base.RoundTrip(r)
	}
	t.rec.end(t.rec.childFromStart("client.encode", t.batch))
	id := t.rec.child("http.roundtrip", t.batch)
	t.trip.Store(int64(id))
	resp, err := t.base.RoundTrip(r)
	t.rec.end(id)
	return resp, err
}

// session is the closed-loop driver: one goroutine, one keep-alive
// connection, the next batch sent only when the previous one returned.
type session struct {
	client *server.Client
	conn   *tracedConn
	gen    *generator
	batch  []server.WireRequest
	sent   int // requests sent, warm-up included
	failed int // requests in batches that failed
}

func newSession(base string, seed int64, batch int) *session {
	conn := &tracedConn{base: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	return &session{
		client: &server.Client{Base: base, HTTP: &http.Client{Transport: conn}},
		conn:   conn,
		gen:    newGenerator(seed),
		batch:  make([]server.WireRequest, batch),
	}
}

func (s *session) close() { s.conn.base.CloseIdleConnections() }

// roundTrip sends the next batch and returns its latency in ms. A
// transport error, a short Done or any per-request error fails every
// request of the batch.
func (s *session) roundTrip(context.Context) (float64, error) {
	s.gen.fill(s.batch)
	s.conn.req++
	s.conn.batch = s.conn.rec.root("batch", s.conn.req)
	t0 := time.Now()
	resp, err := s.client.Batch(s.batch)
	lat := time.Since(t0)
	s.conn.rec.end(s.conn.batch)
	s.sent += len(s.batch)
	ok := err == nil && resp.Done == len(s.batch)
	for i := 0; ok && i < len(resp.Results); i++ {
		ok = resp.Results[i].Err == ""
	}
	if !ok {
		s.failed += len(s.batch)
	}
	return float64(lat) / 1e6, err
}

// op is one closed-loop operation — a batch round trip or a sweep — and
// returns its latency in ms. An error means later ops would fail the
// same way (the daemon is gone), so the phase ends.
type op func(ctx context.Context) (float64, error)

// timed is a timed phase: one latency in ms per op, and the wall time
// the ops took. raw and rawWall are as measured; lats and wall are
// box-speed corrected (see ref.go), i.e. in reference time — the same
// numbers when the phase ran without a reference. speed is the median
// correction applied.
type timed struct {
	lats, raw     []float64
	wall, rawWall time.Duration
	speed         float64
}

// drive runs next back to back for d. Given a box-speed reference, it
// alternates refSlice of ops with a burst of the reference and scales
// each slice's times by the speed measured right after it; d covers
// both.
func drive(ctx context.Context, d time.Duration, next op, ref func() float64) timed {
	t := timed{speed: 1}
	slice := d
	if ref != nil {
		slice = refSlice
	}
	var speeds []float64
	var err error // ends the phase: later ops would fail the same way
	start := time.Now()
	for err == nil && time.Since(start) < d && ctx.Err() == nil {
		first, sliceStart := len(t.lats), time.Now()
		for err == nil && time.Since(sliceStart) < slice && time.Since(start) < d && ctx.Err() == nil {
			var ms float64
			ms, err = next(ctx)
			t.lats, t.raw = append(t.lats, ms), append(t.raw, ms)
		}
		wall := time.Since(sliceStart)
		t.rawWall += wall
		if ref != nil {
			speed := ref()
			speeds = append(speeds, speed)
			for i := first; i < len(t.lats); i++ {
				t.lats[i] *= speed
			}
			wall = time.Duration(float64(wall) * speed)
		}
		t.wall += wall
	}
	if ref != nil {
		t.speed = median(speeds)
	}
	return t
}

// warmUp runs next for exactly d of wall clock: it stops issuing once
// another op as slow as the slowest so far would overrun, and sleeps
// out the rest. Ending on an op boundary instead would add up to one
// op's latency (100 ms on serve_durable) of noise to setup_s.
func warmUp(ctx context.Context, d time.Duration, next op) {
	start := time.Now()
	slowest := 0.0
	for ctx.Err() == nil && time.Since(start)+time.Duration(slowest*1.5e6) < d {
		ms, err := next(ctx)
		if err != nil {
			return
		}
		slowest = max(slowest, ms)
	}
	time.Sleep(d - time.Since(start))
}

// referenceCost replays the first ops requests of the seed's stream
// through an in-process directory and returns its total cost.
func referenceCost(seed int64, ops int) (float64, error) {
	db, err := multiobject.Open(multiobject.Config{Factory: dom.DynamicFactory, T: 3, Model: cost.SC(0.25, 1)})
	if err != nil {
		return 0, err
	}
	g := newGenerator(seed)
	one := make([]server.WireRequest, 1)
	for i := 0; i < ops; i++ {
		g.fill(one)
		if _, err := db.Apply(one[0].Object, modelRequest(one[0])); err != nil {
			return 0, err
		}
	}
	return db.TotalCost(), nil
}

func milli(c float64) int64 { return int64(math.Round(c * 1000)) }

// accountingDiff compares the fields of two final stats that a journal
// determines (what cmd/journalcheck reconciles); "" means equal.
func accountingDiff(a, b server.Stats) string {
	type det struct {
		Complete, Reads, Writes, Coalesce, Retrans, Unreach, Dups uint64
		Objects                                                   int
		Counts                                                    cost.Counts
		CostMilli                                                 int64
	}
	pick := func(s server.Stats) det {
		return det{s.Complete, s.Reads, s.Writes, s.Coalesce, s.Retrans, s.Unreach, s.Dups, s.Objects, s.Counts, milli(s.Cost)}
	}
	if x, y := pick(a), pick(b); x != y {
		return fmt.Sprintf("%+v != %+v", x, y)
	}
	return ""
}

// drainAndVerify stops the daemon and checks what the run claims:
// nothing accepted was lost, the drained cost equals the in-process
// reference over the same stream to the milli-unit, and — when
// journaled — the journal alone reproduces the live accounting, i.e.
// every acked request was durable. It returns the final stats and one
// line per failed check.
func drainAndVerify(d *daemon, s *session, seed int64) (server.Stats, []string) {
	var st server.Stats
	raw, err := d.stop(daemonDrainTimeout)
	if err != nil {
		return st, []string{err.Error()}
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, []string{"stats file: " + err.Error()}
	}
	var bad []string
	if !st.Final || st.Accepted != uint64(s.sent) || st.Complete != uint64(s.sent) {
		bad = append(bad, fmt.Sprintf("final=%t accepted=%d completed=%d, sent %d", st.Final, st.Accepted, st.Complete, s.sent))
	}
	if want, err := referenceCost(seed, s.sent); err != nil {
		bad = append(bad, "reference: "+err.Error())
	} else if milli(st.Cost) != milli(want) {
		bad = append(bad, fmt.Sprintf("drained cost %.3f != reference %.3f", st.Cost, want))
	}
	if d.journal != "" {
		if replayed, err := server.ReplayDir(serverConfig(d.journal, false)); err != nil {
			bad = append(bad, "replay: "+err.Error())
		} else if diff := accountingDiff(replayed, st); diff != "" {
			bad = append(bad, "replay diverges from live stats: "+diff)
		}
	}
	return st, bad
}

// startServing spawns a daemon for sh and connects a session to it.
func (b *bench) startServing(sh shape, seed int64, tag string) (*daemon, *session, error) {
	journal := ""
	if sh.journaled {
		journal = filepath.Join(b.scratch.tmp, "journal-"+tag)
	}
	d, err := startDaemon(b.daemonBin, filepath.Join(b.scratch.dir, "daemon-"+tag), journal)
	if err != nil {
		return nil, nil, err
	}
	return d, newSession(d.base, seed, sh.batch), nil
}

// runServe is one untraced run of a serving workload.
func (b *bench) runServe(ctx context.Context, name string, seed int64, seconds time.Duration) (result, error) {
	sh := shapes[name]
	var d *daemon
	var s *session
	var setups []float64
	for round := 0; round < setupRounds; round++ {
		t0 := time.Now()
		var err error
		d, s, err = b.startServing(sh, seed, fmt.Sprint(round))
		if err != nil {
			return result{}, err
		}
		defer d.close()
		defer s.close()
		warmUp(ctx, warmup, s.roundTrip)
		setups = append(setups, time.Since(t0).Seconds())
		if round < setupRounds-1 {
			if _, bad := drainAndVerify(d, s, seed); len(bad) > 0 {
				return result{}, fmt.Errorf("set-up rehearsal %d: %v", round, bad)
			}
		}
	}
	warmFailed := s.failed

	stopRSS := watchRSS(d.cmd.Process.Pid)
	t := drive(ctx, seconds, s.roundTrip, sh.reference())
	rss, rssErr := stopRSS()
	_, bad := drainAndVerify(d, s, seed)
	if rssErr != nil {
		bad = append(bad, rssErr.Error())
	}
	if warmFailed > 0 {
		bad = append(bad, fmt.Sprintf("%d requests failed during warm-up", warmFailed))
	}
	return endToEnd(ctx, t, sh.batch, s.failed-warmFailed, bad, setups, rss), nil
}

// endToEnd turns a timed phase into the untraced result: t holds one
// latency per op of opSize requests, failed counts the requests in ops
// that failed, and any failed check fails the whole run.
func endToEnd(ctx context.Context, t timed, opSize, failed int, bad []string, setups []float64, rss rssSummary) result {
	sum := stats.Summarize(t.lats)
	res := result{Attempted: len(t.lats) * opSize, Failed: failed, problems: bad}
	if len(bad) > 0 {
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0 && ctx.Err() == nil
	res.note = fmt.Sprintf("%d ops of %d timed over %.2fs of reference time (median box speed %.3f of nominal); p99 %.3f ms and peak RSS %.1f MiB (diagnostics only); set-up rounds %.4v s",
		sum.N, opSize, t.wall.Seconds(), t.speed, sum.P99, rss.peak, setups)
	res.Metrics = withUnits(endToEndUnits, map[string]float64{
		"setup_s":   median(setups),
		"ops_per_s": float64(res.Attempted-res.Failed) / t.wall.Seconds(),
		"op_p50_ms": sum.P50,
		"op_p90_ms": sum.P90,
		"rss_mb":    rss.median,
	})
	return res
}
