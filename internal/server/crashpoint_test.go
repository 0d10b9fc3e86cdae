package server

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"testing"

	"objalloc/internal/ddmin"
	"objalloc/internal/diskfault"
	"objalloc/internal/tracing"
)

// TestCrashAndFaultAtEveryJournalOp checks the crash contract (DESIGN
// §6, invariant 11) at every journal op of a small workload, on both
// battery rows at 1 and 2 shards. One driver sends one request per
// round, so each shard's journal op sequence is a function of the
// schedule, and an op index names one point of it. At every op index k
// of the fault-free run:
//
//   - crash: the disk dies at op k and the run drains. The journal is
//     left with no tail, half of the fault-free journal's next line, or
//     that whole line (the unsynced write a SIGKILL leaves in the page
//     cache); a same-config restart over it then receives every object's
//     stream again from seq 1 and drains;
//   - writeerrat, shortat, syncerrat, enospcat: one transient fault of
//     that kind fires at op k.
//
// Each case checks the invariants (a)–(f) of crashCheck; a failure is
// shrunk to a minimal schedule under the same fault.
func TestCrashAndFaultAtEveryJournalOp(t *testing.T) {
	const objects, perObject = 6, 6
	var sched []schedReq
	for i := range perObject {
		for o := range objects {
			sched = append(sched, schedReq{o: o, i: i})
		}
	}
	for _, rc := range recoveryConfigs {
		for _, shards := range []int{1, 2} {
			for _, kind := range []string{"crash", "writeerrat", "shortat", "syncerrat", "enospcat"} {
				t.Run(fmt.Sprintf("%s/shards=%d/%s", rc.name, shards, kind), func(t *testing.T) {
					t.Parallel()
					c := &crashCheck{mk: rc.cfg, shards: shards, base: t.TempDir()}
					ref, err := c.reference(sched)
					if err != nil {
						t.Fatal(err)
					}
					for k := 1; k <= ref.ops; k++ {
						if err := c.enumerate(ref, sched, kind, k); err != nil {
							t.Error(err)
							return
						}
					}
				})
			}
		}
	}
}

// schedReq is one request of a crash-point schedule: request i of
// object o's stream (requestAt), sent with client seq i+1.
type schedReq struct{ o, i int }

func (r schedReq) object() string { return fmt.Sprintf("obj-%d", r.o) }
func (r schedReq) seq() uint64    { return uint64(r.i) + 1 }

func (r schedReq) String() string { return fmt.Sprintf("%s#%d", r.object(), r.seq()) }

// crashFault is one enumerated case: a crash at op k with one of the
// crashTails left on the journal, or a transient fault of kind (a
// diskfault at-index key) at op k.
type crashFault struct {
	kind, tail string
	k          int
}

func (f crashFault) String() string {
	if f.kind == "crash" {
		return fmt.Sprintf("crash at op %d, tail %s", f.k, f.tail)
	}
	return fmt.Sprintf("%s=%d", f.kind, f.k)
}

// crashTails are what a crash can leave after the durable prefix.
var crashTails = []string{"none", "half", "whole"}

// crashCheck runs the cases of one battery row at one shard count, each
// in a fresh directory under base.
type crashCheck struct {
	mk     func(shards int, dir string) Config
	shards int
	base   string
}

// crashRef is the fault-free run of a schedule: each shard's journal
// bytes, the accounting, and the largest shard's journal op count.
type crashRef struct {
	journals [][]byte
	stats    string
	ops      int
}

// enumerate runs every case at op index k (for a crash, one dead-disk
// run and one restart per tail) and returns the first failure, with the
// schedule shrunk under that fault.
func (c *crashCheck) enumerate(ref crashRef, sched []schedReq, kind string, k int) error {
	if kind != "crash" {
		return c.shrunk(sched, crashFault{kind: kind, k: k}, c.transient(ref, sched, kind, k))
	}
	dir, err := c.crash(ref, sched, k)
	if err != nil {
		return c.shrunk(sched, crashFault{kind: kind, k: k, tail: "none"}, err)
	}
	defer os.RemoveAll(dir)
	for _, tail := range crashTails {
		copyDir, err := c.copyJournals(dir)
		if err == nil {
			err = c.restart(ref, sched, copyDir, tail)
			os.RemoveAll(copyDir)
		}
		if err != nil {
			return c.shrunk(sched, crashFault{kind: kind, k: k, tail: tail}, err)
		}
	}
	return nil
}

// shrunk returns nil for a nil err; otherwise err with the 1-minimal
// schedule (ddmin.Min) that still fails under the same fault.
func (c *crashCheck) shrunk(sched []schedReq, f crashFault, err error) error {
	if err == nil {
		return nil
	}
	minimal, _ := ddmin.Min(sched, func(s []schedReq) (bool, error) { return c.check(s, f) != nil, nil })
	return fmt.Errorf("%v: %w\nminimal schedule (%d of %d requests): %v", f, err, len(minimal), len(sched), minimal)
}

// check runs one case from scratch: the schedule's fault-free reference,
// then the fault.
func (c *crashCheck) check(sched []schedReq, f crashFault) error {
	ref, err := c.reference(sched)
	if err != nil {
		return err
	}
	if f.kind != "crash" {
		return c.transient(ref, sched, f.kind, f.k)
	}
	dir, err := c.crash(ref, sched, f.k)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	return c.restart(ref, sched, dir, f.tail)
}

// config is the row's config over a fresh directory.
func (c *crashCheck) config() (Config, error) {
	dir, err := os.MkdirTemp(c.base, "run")
	if err != nil {
		return Config{}, err
	}
	return c.mk(c.shards, dir), nil
}

// reference runs the schedule on a disk that never fails, through an
// injector so its ops are counted. The count is read after Drain: the
// acks go out before the round's checkpoint is written.
func (c *crashCheck) reference(sched []schedReq) (crashRef, error) {
	cfg, err := c.config()
	if err != nil {
		return crashRef{}, err
	}
	defer os.RemoveAll(cfg.Journal)
	cfg.DiskFaults = &diskfault.Plan{PersistAfter: math.MaxInt}
	s, err := New(cfg)
	if err != nil {
		return crashRef{}, err
	}
	acked, err := sendSchedule(s, sched)
	s.Drain()
	if err == nil && len(acked) != len(sched) {
		err = fmt.Errorf("fault-free run acked %d of %d requests", len(acked), len(sched))
	}
	if err := errors.Join(err, s.DrainErr(), balanced(s.Stats())); err != nil {
		return crashRef{}, fmt.Errorf("fault-free run: %w", err)
	}
	ref := crashRef{stats: detStats(s.Stats())}
	for _, sh := range s.shards {
		ref.ops = max(ref.ops, int(sh.inj.Ops()))
		b, err := os.ReadFile(cfg.journalPath(sh.id))
		if err != nil {
			return crashRef{}, err
		}
		ref.journals = append(ref.journals, b)
	}
	return ref, nil
}

// crash runs the schedule on a disk dead from op k on and drains. It
// checks (c), (b) and (a), and returns the directory the dead disk left.
func (c *crashCheck) crash(ref crashRef, sched []schedReq, k int) (dir string, err error) {
	cfg, err := c.config()
	if err != nil {
		return "", err
	}
	cfg.DiskFaults = &diskfault.Plan{PersistAfter: k}
	s, err := New(cfg)
	if err != nil {
		return "", err
	}
	acked, err := sendSchedule(s, sched)
	s.Drain()
	err = errors.Join(err, balanced(s.Stats()), ackedDurable(cfg, acked))
	for i, want := range ref.journals {
		b, rerr := os.ReadFile(cfg.journalPath(i))
		switch {
		case rerr != nil:
			err = errors.Join(err, rerr)
		case !bytes.HasPrefix(want, b):
			err = errors.Join(err, fmt.Errorf("(b) a crash leaves a prefix: shard %d's %d-byte journal is not a prefix of the fault-free run's", i, len(b)))
		}
	}
	if err != nil {
		os.RemoveAll(cfg.Journal)
		return "", err
	}
	return cfg.Journal, nil
}

// restart leaves tail on each shard journal in dir, restarts over it,
// resends the whole schedule checking (e) against the replayed horizon,
// and drains, checking (c) and (d).
func (c *crashCheck) restart(ref crashRef, sched []schedReq, dir, tail string) error {
	cfg := c.mk(c.shards, dir)
	for i, full := range ref.journals {
		if err := appendTail(cfg.journalPath(i), full, tail); err != nil {
			return err
		}
	}
	horizon, err := replayedHorizon(cfg)
	if err != nil {
		return err
	}
	s, err := New(cfg)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	for _, r := range sched {
		res, err := s.do(r.object(), requestAt(r.o, r.i, s.cfg.N), tracing.SpanContext{}, r.seq())
		if err != nil && !errors.As(err, new(Unreachable)) {
			s.Drain()
			return fmt.Errorf("resend %v: %w", r, err)
		}
		if below := r.seq() < horizon[r.object()]; res.Duplicate != below || (below && res.Cost != 0) {
			s.Drain()
			return fmt.Errorf("(e) dedup is free: resend %v (horizon %d) answered duplicate=%t cost=%g", r, horizon[r.object()], res.Duplicate, res.Cost)
		}
	}
	s.Drain()
	if err := errors.Join(s.DrainErr(), balanced(s.Stats())); err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	return sameAccounting(ref, s, cfg)
}

// transient runs the schedule with one fault of kind at op k and checks
// (f), (c), (a) and (d).
func (c *crashCheck) transient(ref crashRef, sched []schedReq, kind string, k int) error {
	spec := fmt.Sprintf("%s=%d", kind, k)
	if kind == "enospcat" {
		spec += ",enospclen=2"
	}
	plan, err := diskfault.ParsePlan(spec)
	if err != nil {
		return err
	}
	cfg, err := c.config()
	if err != nil {
		return err
	}
	defer os.RemoveAll(cfg.Journal)
	cfg.DiskFaults = &plan
	s, err := New(cfg)
	if err != nil {
		return err
	}
	acked, err := sendSchedule(s, sched)
	s.Drain()
	if err == nil && len(acked) != len(sched) {
		err = fmt.Errorf("(f) transient faults leave no loss: %d of %d requests acked", len(acked), len(sched))
	}
	if derr := s.DrainErr(); derr != nil {
		err = errors.Join(err, fmt.Errorf("(f) transient faults leave no loss: %w", derr))
	}
	if opsCounter(s, "server.journal_faults") == 0 {
		err = errors.Join(err, fmt.Errorf("%s injected no journal fault", spec))
	}
	if err := errors.Join(err, balanced(s.Stats()), ackedDurable(cfg, acked)); err != nil {
		return err
	}
	return sameAccounting(ref, s, cfg)
}

// sendSchedule sends the schedule one request at a time and returns
// the requests that were acked: answered, possibly Unreachable. A
// fail-stopped shard's refusal (*Unavailable) is not an ack; any other
// error is returned.
func sendSchedule(s *Server, sched []schedReq) ([]schedReq, error) {
	var acked []schedReq
	for _, r := range sched {
		_, err := s.do(r.object(), requestAt(r.o, r.i, s.cfg.N), tracing.SpanContext{}, r.seq())
		switch {
		case err == nil || errors.As(err, new(Unreachable)):
			acked = append(acked, r)
		case errors.As(err, new(*Unavailable)):
		default:
			return acked, fmt.Errorf("%v: %w", r, err)
		}
	}
	return acked, nil
}

// appendTail appends what a crash left past path's durable prefix: of
// the fault-free journal's next line, nothing, half, or the whole line.
func appendTail(path string, full []byte, tail string) error {
	if tail == "none" {
		return nil
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	next := full[len(b):]
	if i := bytes.IndexByte(next, '\n'); i >= 0 {
		next = next[:i+1]
	}
	if tail == "half" {
		next = next[:len(next)/2]
	}
	return os.WriteFile(path, append(b, next...), 0o644)
}

// copyJournals copies the shard journals in dir to a fresh directory.
func (c *crashCheck) copyJournals(dir string) (string, error) {
	dst, err := os.MkdirTemp(c.base, "copy")
	if err != nil {
		return "", err
	}
	for i := range c.shards {
		name := fmt.Sprintf("shard-%d.jsonl", i)
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, name), b, 0o644)
		}
		if err != nil {
			return "", err
		}
	}
	return dst, nil
}

// replayedHorizon replays every shard journal of cfg and returns each
// object's dedup horizon, the next seq it has not serviced.
func replayedHorizon(cfg Config) (map[string]uint64, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	horizon := make(map[string]uint64)
	for i := range cfg.Shards {
		st, _, err := replayJournal(cfg.journalPath(i), &cfg)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		maps.Copy(horizon, st.next)
	}
	return horizon, nil
}

// ackedDurable is (a): every acked request is below the horizon a
// replay of cfg's journals rebuilds.
func ackedDurable(cfg Config, acked []schedReq) error {
	horizon, err := replayedHorizon(cfg)
	if err != nil {
		return err
	}
	for _, r := range acked {
		if r.seq() >= horizon[r.object()] {
			return fmt.Errorf("(a) acked ⇒ durable: %v was acked, the replayed horizon is %d", r, horizon[r.object()])
		}
	}
	return nil
}

// balanced is (c): accepted == completed at drain.
func balanced(st Stats) error {
	if st.Accepted != st.Complete {
		return fmt.Errorf("(c) accepted == completed: accepted %d, completed %d", st.Accepted, st.Complete)
	}
	return nil
}

// sameAccounting is (d): the drained server's accounting, and a replay of
// its final directory, match the fault-free run's.
func sameAccounting(ref crashRef, s *Server, cfg Config) error {
	if got := detStats(s.Stats()); got != ref.stats {
		return fmt.Errorf("(d) same accounting, live:\n got %s\nwant %s", got, ref.stats)
	}
	st, err := ReplayDir(cfg)
	if err != nil {
		return fmt.Errorf("(d) same accounting, replayed: %w", err)
	}
	if got := detStats(st); got != ref.stats {
		return fmt.Errorf("(d) same accounting, replayed:\n got %s\nwant %s", got, ref.stats)
	}
	return nil
}
