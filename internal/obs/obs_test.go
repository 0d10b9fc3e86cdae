package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

// A nil bundle, registry, counter or histogram must absorb every call —
// that is the contract that lets instrumented code run unconditionally.
func TestNilSafety(t *testing.T) {
	var o *Obs
	if o.Enabled() {
		t.Fatal("nil *Obs reports Enabled")
	}
	o.Counter("x").Add(3)
	o.Counter("x").Inc()
	o.Histogram("h", 1, 2).Observe(7)
	o.Emit(Event{Name: "e"})
	if o.Hook() != nil {
		t.Fatal("nil *Obs has a Hook")
	}
	if got := o.Counter("x").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}

	var r *Registry
	r.Counter("x").Inc()
	r.Histogram("h").Observe(1)
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}

	// An Obs with only a Sink must not crash on registry lookups.
	o = &Obs{Sink: Null}
	o.Counter("x").Inc()
	o.Histogram("h", 1).Observe(1)
	o.Emit(Event{Name: "e"})
}

func TestCounterAndHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Add(2)
	c.Inc()
	if got := r.Counter("a").Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}

	h := r.Histogram("h", 0, 2, 4)
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if len(s.Histograms) != 1 {
		t.Fatalf("snapshot has %d histograms", len(s.Histograms))
	}
	p := s.Histograms[0]
	// Buckets: v<=0 -> {0}; v<=2 -> {1,2}; v<=4 -> {3,4}; overflow -> {5,100}.
	wantBuckets := []int64{1, 2, 2, 2}
	if !reflect.DeepEqual(p.Buckets, wantBuckets) {
		t.Fatalf("buckets = %v, want %v", p.Buckets, wantBuckets)
	}
	if p.Count != 7 || p.Sum != 115 {
		t.Fatalf("count/sum = %d/%d, want 7/115", p.Count, p.Sum)
	}

	// First registration wins; later bounds are ignored.
	if h2 := r.Histogram("h", 9, 99); h2 != h {
		t.Fatal("re-registration returned a different histogram")
	}
}

// Snapshots must come out sorted by name no matter the registration or
// update order — that is what makes them comparable across parallelism.
func TestSnapshotOrdering(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"z", "a", "m"} {
		r.Counter(name).Inc()
		r.Histogram("h."+name, 1).Observe(1)
	}
	s := r.Snapshot()
	for i := 1; i < len(s.Counters); i++ {
		if s.Counters[i-1].Name >= s.Counters[i].Name {
			t.Fatalf("counters unsorted: %v", s.Counters)
		}
	}
	for i := 1; i < len(s.Histograms); i++ {
		if s.Histograms[i-1].Name >= s.Histograms[i].Name {
			t.Fatalf("histograms unsorted: %v", s.Histograms)
		}
	}
}

// Two registries fed the same updates from different interleavings must
// snapshot identically.
func TestSnapshotDeterminismUnderConcurrency(t *testing.T) {
	const total = 8000
	run := func(workers int) Snapshot {
		r := NewRegistry()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < total; i += workers {
					r.Counter("c").Inc()
					r.Histogram("h", 10, 100).Observe(int64(i % 150))
				}
			}(w)
		}
		wg.Wait()
		return r.Snapshot()
	}
	if a, b := run(1), run(8); !reflect.DeepEqual(a, b) {
		t.Fatalf("snapshots differ:\n1 worker: %+v\n8 workers: %+v", a, b)
	}
}

func TestJSONLEncoding(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONL(&buf)
	s.Emit(Event{Name: "request", Attrs: []Attr{
		String("kind", "read"),
		Int("proc", 3),
		Int64("ctl", -1),
		Uint64("seq", 9),
		Float("ratio", 1.5),
		Bool("ok", true),
		Int64s("buckets", []int64{1, 2}),
		String("quote", `a"b`),
		Float("factor", math.Inf(1)),
	}})
	want := `{"event":"request","kind":"read","proc":3,"ctl":-1,"seq":9,"ratio":1.5,"ok":true,"buckets":[1,2],"quote":"a\"b","factor":"+Inf"}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("JSONL encoding:\ngot  %q\nwant %q", got, want)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("JSONL line is not JSON: %q", buf.String())
	}
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotEmit(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(5)
	r.Histogram("h", 2).Observe(1)
	var buf bytes.Buffer
	r.Snapshot().Emit(NewJSONL(&buf))
	want := `{"event":"counter","name":"c","value":5}` + "\n" +
		`{"event":"histogram","name":"h","count":1,"sum":1,"bounds":[2],"buckets":[1,0]}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("registry dump:\ngot  %q\nwant %q", got, want)
	}
}

func TestEventAccessors(t *testing.T) {
	e := Event{Name: "x", Attrs: []Attr{Int("a", 7), String("s", "v")}}
	if got := e.Int64At("a"); got != 7 {
		t.Fatalf("Int64At = %d", got)
	}
	if got := e.Int64At("s"); got != 0 {
		t.Fatalf("Int64At on string = %d", got)
	}
	if got := e.Get("missing"); got != nil {
		t.Fatalf("Get(missing) = %v", got)
	}
}

func TestMemSink(t *testing.T) {
	m := NewMem()
	m.Emit(Event{Name: "a"})
	m.Emit(Event{Name: "b"})
	m.Emit(Event{Name: "a"})
	if got := len(m.Events()); got != 3 {
		t.Fatalf("Events = %d", got)
	}
	if got := len(m.Named("a")); got != 2 {
		t.Fatalf("Named(a) = %d", got)
	}
}

func TestProgress(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, "test", 0)
	clock := time.Unix(0, 0)
	p.now = func() time.Time { return clock }

	p.RunStart(3)
	p.TaskStart(0)
	p.TaskStart(1)
	clock = clock.Add(100 * time.Millisecond)
	p.TaskDone(0, nil)
	p.TaskDone(1, errors.New("boom"))
	p.TaskStart(2)
	clock = clock.Add(50 * time.Millisecond)
	p.TaskDone(2, nil)
	p.RunDone()

	done, total, inflight, peak := p.Stats()
	if done != 3 || total != 3 || inflight != 0 || peak != 2 {
		t.Fatalf("stats = done %d total %d inflight %d peak %d", done, total, inflight, peak)
	}
	p.Finish()
	p.Finish() // second call must not print again
	out := buf.String()
	if !bytes.Contains([]byte(out), []byte("done 3/3 tasks")) {
		t.Fatalf("final summary missing from output:\n%s", out)
	}
	if n := bytes.Count([]byte(out), []byte("done 3/3 tasks")); n != 1 {
		t.Fatalf("Finish printed %d times", n)
	}
	if !bytes.Contains([]byte(out), []byte("1 failed")) {
		t.Fatalf("failure count missing from output:\n%s", out)
	}
	if !bytes.Contains([]byte(out), []byte("peak queue depth 2")) {
		t.Fatalf("peak queue depth missing from output:\n%s", out)
	}
}

// Accumulation across runs: a bisection performs one engine run per probe
// against the same Observer.
func TestProgressAccumulatesRuns(t *testing.T) {
	p := NewProgress(&bytes.Buffer{}, "x", time.Hour)
	for run := 0; run < 3; run++ {
		p.RunStart(2)
		for i := 0; i < 2; i++ {
			p.TaskStart(i)
			p.TaskDone(i, nil)
		}
		p.RunDone()
	}
	done, total, _, _ := p.Stats()
	if done != 6 || total != 6 {
		t.Fatalf("accumulated done/total = %d/%d, want 6/6", done, total)
	}
}

func TestStartCLIAllOff(t *testing.T) {
	cli, err := StartCLI(CLIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cli.Obs() != nil {
		t.Fatal("all-off CLI should have a nil Obs")
	}
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}
