package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"objalloc/internal/server"
)

// The benchmark runs from the repository root (it builds ./cmd/objallocd
// and reads BENCHMARK.json there), so its tests do too.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_TEST_IGNORE_TERM") != "" {
		// Helper process for TestReapKillsAfterGrace: a child that
		// ignores SIGTERM.
		signal.Ignore(syscall.SIGTERM)
		os.Stdout.WriteString("ready\n")
		time.Sleep(time.Minute)
		os.Exit(0)
	}
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), the
// rule the acceptance driver applies.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 3, 7, 1, 9}, 2, 9.5},
		{[]float64{2, 4}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.v, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "batch", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "encode", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "roundtrip", StartNS: 20, EndNS: 50},   // overlaps encode: 20–30 counted once
		{ID: 4, Parent: 1, Name: "roundtrip", StartNS: 90, EndNS: 120},  // clipped to the parent's end
		{ID: 5, Parent: 3, Name: "handle", StartNS: 25, EndNS: 45},      // a grandchild only shrinks its own parent
		{ID: 6, Name: "batch", StartNS: 200, EndNS: 260},                // a second root of the same name
		{ID: 7, Parent: 6, Name: "roundtrip", StartNS: 200, EndNS: 260}, // fully covered
	}
	got := selfTimes(spans)
	want := map[string]int64{"batch": 50, "encode": 20, "roundtrip": 10 + 30 + 60, "handle": 20}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, got[name], w)
		}
	}
}

func TestRecorderParentage(t *testing.T) {
	var none *recorder
	if id := none.root("batch", 1); id != 0 {
		t.Fatalf("nil recorder opened span %d", id)
	}
	none.end(0)

	r := newRecorder()
	b := r.root("batch", 7)
	e := r.childFromStart("client.encode", b)
	r.end(e)
	c := r.child("http.roundtrip", b)
	r.end(c)
	r.end(b)
	if r.child("orphan", 0) != 0 {
		t.Fatal("a child of no span was recorded")
	}
	if len(r.spans) != 3 {
		t.Fatalf("%d spans, want 3", len(r.spans))
	}
	for _, s := range r.spans {
		if s.Req != 7 {
			t.Errorf("span %s has req %d, want the root's 7", s.Name, s.Req)
		}
		if s.EndNS < s.StartNS {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if r.spans[1].StartNS != r.spans[0].StartNS || r.spans[1].Parent != b {
		t.Errorf("client.encode = %+v, want it to start with its parent %+v", r.spans[1], r.spans[0])
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := r.writeFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(raw, []byte("\n")); n != 3 {
		t.Fatalf("trace file has %d lines, want 3", n)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	stream := func(seed int64) []byte {
		g := newGenerator(seed)
		var out []byte
		for _, size := range []int{32, 1, 32} {
			batch := make([]server.WireRequest, size)
			g.fill(batch)
			b, err := json.Marshal(server.BatchRequest{Requests: batch})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, b...)
		}
		return out
	}
	a := stream(1)
	if !bytes.Equal(a, stream(1)) {
		t.Fatal("same seed produced different bytes")
	}
	if bytes.Equal(a, stream(2)) {
		t.Fatal("different seeds produced the same bytes")
	}

	// Sequence numbers count up per object from 1, across batches.
	g := newGenerator(3)
	next := make(map[string]uint64)
	batch := make([]server.WireRequest, 32)
	writes := 0
	for i := 0; i < 100; i++ {
		g.fill(batch)
		for _, wr := range batch {
			next[wr.Object]++
			if wr.Seq != next[wr.Object] {
				t.Fatalf("%s carries seq %d, want %d", wr.Object, wr.Seq, next[wr.Object])
			}
			if wr.Processor < 0 || wr.Processor >= genProcessors {
				t.Fatalf("processor %d out of range", wr.Processor)
			}
			if wr.Op == "w" {
				writes++
			}
		}
	}
	if len(next) != genObjects {
		t.Errorf("%d distinct objects in 3200 requests, want %d", len(next), genObjects)
	}
	if share := float64(writes) / 3200; math.Abs(share-genPWrite) > 0.05 {
		t.Errorf("write share %.3f, want about %.1f", share, genPWrite)
	}
}

// The cost reference is a pure function of (seed, ops) and independent
// of how the stream was cut into batches.
func TestReferenceCostDeterministic(t *testing.T) {
	a, err := referenceCost(5, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := referenceCost(5, 1000)
	c, _ := referenceCost(6, 1000)
	if a != b || a == c || a <= 0 {
		t.Fatalf("reference costs %g, %g (same seed), %g (other seed)", a, b, c)
	}
}

// A child that ignores SIGTERM is killed once the grace period ends,
// and reap returns only when it is gone.
func TestReapKillsAfterGrace(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "BENCH_TEST_IGNORE_TERM=1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait until the child has installed its signal disposition.
	if _, err := stdout.Read(make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	t0 := time.Now()
	err = reap(cmd.Process, exited, 200*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "killed") {
		t.Fatalf("reap = %v, want a still-running error", err)
	}
	if d := time.Since(t0); d < 200*time.Millisecond || d > 10*time.Second {
		t.Fatalf("reap took %s, want just over the 200ms grace", d)
	}
	if cmd.ProcessState == nil || cmd.ProcessState.Sys().(syscall.WaitStatus).Signal() != syscall.SIGKILL {
		t.Fatalf("child state %v, want killed by SIGKILL", cmd.ProcessState)
	}
}

// A daemon that fails to come up is reaped and leaves no directory.
func TestFailedDaemonLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	exit1 := filepath.Join(dir, "exit1")
	if err := os.WriteFile(exit1, []byte("#!/bin/sh\nexit 1\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	runDir, journal := filepath.Join(dir, "run"), filepath.Join(dir, "journal")
	if err := os.Mkdir(journal, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := startDaemon(exit1, runDir, journal); err == nil {
		t.Fatal("a daemon that exits at once was reported healthy")
	}
	for _, p := range []string{runDir, journal} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s survives a failed start (stat: %v)", p, err)
		}
	}
}

// leftovers lists what a finished run must not leave behind.
func leftovers(t *testing.T) []string {
	t.Helper()
	var found []string
	for _, pattern := range []string{filepath.Join(outDir, "run-*"), "/dev/shm/objalloc-bench-*"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		found = append(found, m...)
	}
	return found
}

func runBench(t *testing.T, args ...string) result {
	t.Helper()
	before := leftovers(t)
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("bench %v: %v\n%s", args, err, out.String())
	}
	res, err := lastLine(out.Bytes())
	if err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run not clean: %s", out.String())
	}
	if !strings.Contains(out.String(), "# environment {") || !strings.Contains(out.String(), `"daemon_flags"`) {
		t.Errorf("no environment record in the output:\n%s", out.String())
	}
	if after := leftovers(t); len(after) != len(before) {
		t.Errorf("run left directories behind: before %v, after %v", before, after)
	}
	return res
}

func metricNames(units map[string]string) map[string]bool {
	names := make(map[string]bool)
	for n := range units {
		names[n] = true
	}
	return names
}

// BENCHMARK.json and the code declare the same metrics, units and
// workloads.
func TestManifestMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf struct {
		manifest
		Workloads []struct{ Name string } `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	e2e, layer := metricNames(endToEndUnits), metricNames(perLayerUnits)
	for _, m := range mf.EndToEnd {
		if endToEndUnits[m.Name] != m.Unit {
			t.Errorf("end_to_end %s: manifest unit %q, code %q", m.Name, m.Unit, endToEndUnits[m.Name])
		}
		delete(e2e, m.Name)
	}
	for _, m := range mf.PerLayer {
		if perLayerUnits[m.Name] != m.Unit {
			t.Errorf("per_layer %s: manifest unit %q, code %q", m.Name, m.Unit, perLayerUnits[m.Name])
		}
		delete(layer, m.Name)
	}
	if len(e2e)+len(layer) > 0 {
		t.Errorf("metrics the code prints but the manifest omits: %v %v", e2e, layer)
	}
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, code %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range mf.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: manifest %q, code %q", i, w.Name, workloads[i])
		}
	}
}

// One short untraced run end to end, given exactly as the driver gives
// its arguments: a real objallocd child on the modelled device, every
// correctness check, the five metrics, and nothing left behind.
func TestUntracedRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns objallocd")
	}
	res := runBench(t, "--workload", "serve_durable_single", "--seed", "3", "--seconds", "1", "--trace", "0")
	for name, unit := range endToEndUnits {
		m, ok := res.Metrics[name]
		if !ok || m.Unit != unit || !(m.Value > 0) {
			t.Errorf("metric %s = %+v (present %t), want a positive value in %s", name, m, ok, unit)
		}
	}
	if len(res.Metrics) != len(endToEndUnits) {
		t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(endToEndUnits))
	}
}

// One short traced run: every per-layer metric, exactly one commit per
// op on the durable path, and a span file whose batches decompose.
func TestTracedRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns objallocd")
	}
	res := runBench(t, "-workload", "serve_durable_single", "-seed", "3", "-seconds", "2", "-trace", "1")
	for name, unit := range perLayerUnits {
		if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
			t.Errorf("metric %s = %+v (present %t), want unit %s", name, m, ok, unit)
		}
	}
	if got := res.Metrics["journal.commits_per_op"].Value; got != 1 {
		t.Errorf("journal.commits_per_op = %v, want exactly 1", got)
	}
	raw, err := os.ReadFile(tracePath("serve_durable_single"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var s span
		if err := json.Unmarshal(line, &s); err != nil {
			t.Fatalf("span line %q: %v", line, err)
		}
		spans = append(spans, s)
	}
	self := selfTimes(spans)
	for _, name := range []string{"batch", "client.encode", "http.roundtrip", "http.handle", "rung:server.do"} {
		if self[name] <= 0 {
			t.Errorf("no self time recorded for %s spans", name)
		}
	}
}
