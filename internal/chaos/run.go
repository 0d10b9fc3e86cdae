package chaos

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"objalloc/internal/cost"
	"objalloc/internal/ha"
	"objalloc/internal/model"
	"objalloc/internal/netsim"
	"objalloc/internal/obs"
	"objalloc/internal/quorum"
	"objalloc/internal/sim"
	"objalloc/internal/storage"
)

// Violation is one invariant breach, pinned to the step that exposed it.
type Violation struct {
	Step      int    // index into the expanded step list
	Invariant string // which invariant broke
	Detail    string // what was observed
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("step %d: %s: %s", v.Step, v.Invariant, v.Detail)
}

// Result summarizes one scenario run.
type Result struct {
	Engine   Engine
	Seed     uint64
	StepsRun int // steps executed (< len(steps) when a violation aborted the run)
	Reads    int
	Writes   int
	Crashes  int
	Restarts int
	// FinalSeq is the last committed version number.
	FinalSeq uint64
	// Counts is the paper-model cost accounting of the whole run.
	Counts cost.Counts
	// Overhead is the reliability-layer traffic billed apart from Counts.
	Overhead netsim.Overhead
	// Violations holds every invariant breach; a clean run has none. The
	// runner stops at the first one — the cluster's state is no longer
	// trustworthy past a broken invariant.
	Violations []Violation
}

// Failed reports whether the run breached any invariant.
func (r Result) Failed() bool { return len(r.Violations) > 0 }

// cluster is the surface the runner drives; sim.Cluster, quorum.Cluster
// and ha.Cluster all provide it.
type cluster interface {
	Read(p model.ProcessorID) (storage.Version, error)
	Write(p model.ProcessorID, data []byte) (storage.Version, error)
	Crash(p model.ProcessorID) error
	Restart(p model.ProcessorID) error
	HolderSeqs() []uint64
	Counts() cost.Counts
	ReliabilityOverhead() netsim.Overhead
	Close()
}

// harness is one protocol stack under test, plus the two things the
// stacks really differ in: what bringing a processor back entails, and
// which mode is in charge.
type harness struct {
	cluster
	restart func(p model.ProcessorID) error
	mode    func() string
}

// minHolders is the engine's t-availability floor with nobody crashed; the
// checker subtracts the current crash count (a crashed holder can take its
// copy down with it) and floors at one.
func minHolders(e Engine, n, t int, mode string) int {
	switch {
	case e == EngineDA:
		return t
	case e == EngineQuorum || mode == "quorum":
		return n/2 + 1
	default: // ha in DA mode
		return t
	}
}

func open(sc Scenario, o *obs.Obs) (harness, error) {
	switch sc.Engine {
	case EngineDA:
		c, err := sim.New(sim.Config{
			N: sc.N, T: sc.T, Protocol: sim.DA, Initial: model.FullSet(sc.T),
			Obs: o, Faults: &sc.Faults, Retry: sc.Retry,
		})
		if err != nil {
			return harness{}, err
		}
		return harness{c, c.Restart, func() string { return "da" }}, nil
	case EngineQuorum:
		c, err := quorum.New(quorum.Config{
			N: sc.N, Preload: true, Obs: o, Faults: &sc.Faults, Retry: sc.Retry,
		})
		if err != nil {
			return harness{}, err
		}
		// Missing-writes catch-up (§2.4): the restarted replica recovers the
		// latest version through a quorum read, so it rejoins as a holder.
		restart := func(p model.ProcessorID) error {
			if err := c.Restart(p); err != nil {
				return err
			}
			_, err := c.Recover(p)
			return err
		}
		return harness{c, restart, func() string { return "quorum" }}, nil
	case EngineHA:
		c, err := ha.New(ha.Config{
			N: sc.N, T: sc.T, Initial: model.FullSet(sc.T),
			Obs: o, Faults: &sc.Faults, Retry: sc.Retry,
		})
		if err != nil {
			return harness{}, err
		}
		return harness{c, c.Restart, func() string { return strings.ToLower(c.Mode().String()) }}, nil
	default:
		return harness{}, fmt.Errorf("chaos: unknown engine %v", sc.Engine)
	}
}

// Run executes the scenario and checks the invariants after every step;
// it is RunContext with a background context.
func Run(sc Scenario, o *obs.Obs) (Result, error) {
	return RunContext(context.Background(), sc, o)
}

// RunContext executes the scenario and checks the invariants after every
// step. Cancelling the context stops the run between steps and returns
// the partial result with ctx.Err().
//
// Observability: when o is non-nil, the engines' raw events (drops,
// duplications, retransmission counters, per-operation records) are
// captured per step and re-emitted into o prefixed with the step index, in
// the order they happened — a drop before the retransmission it causes.
// Two runs of the same seed produce byte-identical event streams. The
// runner adds its own "chaos.step" event per step and a "chaos.violation"
// event per breach.
func RunContext(ctx context.Context, sc Scenario, o *obs.Obs) (Result, error) {
	if err := sc.normalize(); err != nil {
		return Result{}, err
	}
	steps := sc.Expand()

	// The engines write into a private mem sink; forward() stamps each
	// step's batch with the step index and passes it to the caller's sink.
	var inner *obs.Obs
	var mem *obs.MemSink
	if o.Enabled() {
		mem = obs.NewMem()
		inner = &obs.Obs{Registry: o.Registry, Sink: mem}
	}
	h, err := open(sc, inner)
	if err != nil {
		return Result{}, err
	}
	defer h.Close()

	res := Result{Engine: sc.Engine, Seed: sc.Seed}
	latest := uint64(1) // every engine preloads version 1
	var crashed model.Set
	prevSeqs := h.HolderSeqs()
	prevMode := h.mode()

	fail := func(i int, invariant, format string, args ...any) {
		v := Violation{Step: i, Invariant: invariant, Detail: fmt.Sprintf(format, args...)}
		res.Violations = append(res.Violations, v)
		if o.Enabled() {
			o.Emit(obs.Event{Name: "chaos.violation", Attrs: []obs.Attr{
				obs.Int("step", i),
				obs.String("invariant", invariant),
				obs.String("detail", v.Detail),
			}})
		}
	}

	forward := func(i int) {
		if mem == nil {
			return
		}
		for _, e := range mem.Drain() {
			e.Attrs = append([]obs.Attr{obs.Int("step", i)}, e.Attrs...)
			o.Emit(e)
		}
	}

	for i, step := range steps {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		res.StepsRun = i + 1
		var stalled bool
		switch step.Kind {
		case StepRead:
			res.Reads++
			v, err := h.Read(step.Proc)
			switch {
			case errors.Is(err, netsim.ErrStalled):
				fail(i, "op-terminates", "read at %d never completes: %v", step.Proc, err)
				stalled = true
			case err != nil:
				fail(i, "op-success", "read at live processor %d failed: %v", step.Proc, err)
			case v.Seq != latest:
				fail(i, "read-latest", "read at %d observed seq %d, latest committed is %d", step.Proc, v.Seq, latest)
			}
		case StepWrite:
			res.Writes++
			v, err := h.Write(step.Proc, []byte(fmt.Sprintf("w%d", i)))
			switch {
			case errors.Is(err, netsim.ErrStalled):
				fail(i, "op-terminates", "write at %d never completes: %v", step.Proc, err)
				stalled = true
			case err != nil:
				fail(i, "op-success", "write at live processor %d failed: %v", step.Proc, err)
				if v.Seq > latest {
					latest = v.Seq // the commit may have landed before propagation gave up
				}
			default:
				if v.Seq <= latest && latest > 1 {
					fail(i, "write-monotone", "write at %d got seq %d, not above %d", step.Proc, v.Seq, latest)
				}
				latest = v.Seq
				res.FinalSeq = latest
			}
		case StepCrash:
			res.Crashes++
			if err := h.Crash(step.Proc); err != nil {
				forward(i)
				return res, fmt.Errorf("chaos: step %d crash(%d): %w", i, step.Proc, err)
			}
			crashed = crashed.Add(step.Proc)
		case StepRestart:
			res.Restarts++
			if err := h.restart(step.Proc); err != nil {
				forward(i)
				return res, fmt.Errorf("chaos: step %d restart(%d): %w", i, step.Proc, err)
			}
			crashed = crashed.Remove(step.Proc)
		}
		if stalled {
			// The cluster has a stranded operation; its state can no
			// longer be checked meaningfully.
			forward(i)
			break
		}

		// Invariants. holderSeqs quiesces, so delayed messages land and
		// outstanding handlers finish before the state is inspected.
		seqs := h.HolderSeqs()
		mode := h.mode()

		if mode != prevMode && step.Kind != StepCrash && step.Kind != StepRestart {
			fail(i, "mode-on-membership-change",
				"mode switched %s→%s on a %v step — no membership change happened", prevMode, mode, step.Kind)
		}
		liveHolders := 0
		for p, s := range seqs {
			if s != 0 && s < prevSeqs[p] {
				fail(i, "version-monotone", "processor %d regressed from seq %d to %d", p, prevSeqs[p], s)
			}
			if s == latest && !crashed.Contains(model.ProcessorID(p)) {
				liveHolders++
			}
		}
		want := minHolders(sc.Engine, sc.N, sc.T, mode) - crashed.Size()
		if want < 1 {
			want = 1
		}
		if liveHolders < want {
			fail(i, "t-availability", "only %d live holders of seq %d, want at least %d (mode %s, %d crashed)",
				liveHolders, latest, want, mode, crashed.Size())
		}
		prevSeqs, prevMode = seqs, mode

		if o.Enabled() {
			o.Emit(obs.Event{Name: "chaos.step", Attrs: []obs.Attr{
				obs.Int("step", i),
				obs.String("kind", step.Kind.String()),
				obs.Int("proc", int(step.Proc)),
				obs.Uint64("seq", latest),
				obs.String("mode", mode),
			}})
		}
		forward(i)
		if len(res.Violations) > 0 {
			break
		}
	}
	res.FinalSeq = latest
	res.Counts = h.Counts()
	res.Overhead = h.ReliabilityOverhead()
	return res, nil
}
