// Package diskfault is the deterministic disk-fault injection layer
// for the journal write path: a seeded failpoint implementation whose
// fault decisions are a pure function of (seed, shard, op index) — the
// disk analogue of netsim's per-link FaultPlan, replayable from the
// seed alone and independent of goroutine scheduling.
//
// Faults model what real local databases (the paper's per-processor
// stores, DESIGN S9) actually do under pressure:
//
//   - clean write errors (EIO; nothing reaches the platter)
//   - short / torn writes (a strict prefix reaches the file, then EIO)
//   - ENOSPC streaks (the disk fills for a bounded run of operations,
//     then space frees)
//   - fsync failures with fsyncgate-correct semantics: a failed fsync
//     DROPS the dirty (unsynced) bytes — the page cache marked them
//     clean on error, exactly the Postgres-discovered kernel behavior —
//     and poisons the handle, so the only safe continuation is discard,
//     reopen and rebuild from the durable prefix. A retried fsync on
//     the poisoned handle fails with ErrSyncRetried rather than
//     silently "succeeding", which is how the harness proves the
//     caller never trusts a post-failure fsync.
//   - bounded latency stalls (a slow disk, not a broken one)
//
// Each Write or Sync call on an injected file is one "op" and consumes
// a fixed number of draws from the shard's splitmix64 stream, so the
// fault at op k never depends on how earlier faults were handled. The
// per-shard op counter lives in the Injector and survives reopens:
// a plan with PersistAfter keeps a dead disk dead across the
// supervisor's rebuild attempts.
package diskfault

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"objalloc/internal/kvspec"
)

// Injected fault sentinels. Callers match with errors.Is; every injected
// error also stringifies with the op index for log forensics.
var (
	// ErrWrite is a clean injected write error: nothing was written.
	ErrWrite = errors.New("diskfault: injected write error")
	// ErrTorn is an injected torn write: a strict prefix of the buffer
	// reached the file before the error.
	ErrTorn = errors.New("diskfault: injected torn write")
	// ErrSync is an injected fsync failure. The dirty (unsynced) bytes
	// have been dropped and the handle is poisoned; the caller must
	// discard, reopen and rebuild from the durable prefix.
	ErrSync = errors.New("diskfault: injected fsync error")
	// ErrSyncRetried reports a second fsync on a handle whose previous
	// fsync failed — the fsyncgate anti-pattern. It is returned forever
	// on the poisoned handle so a retry loop can never limp past it.
	ErrSyncRetried = errors.New("diskfault: fsync retried after failed fsync (reopen required)")
	// ErrPoisoned reports a write on a handle whose fsync failed.
	ErrPoisoned = errors.New("diskfault: write on handle after failed fsync (reopen required)")
)

// Plan is a seeded disk-fault schedule. Probabilities apply
// independently per op; the *At fields inject one deterministic fault
// at an exact 1-based op index (0 disables), which is what the
// table-driven tests use to hit a specific commit. The zero Plan is
// inert.
type Plan struct {
	// Seed roots every per-shard draw stream.
	Seed uint64
	// WriteErr is the probability a write fails cleanly (EIO, nothing
	// written).
	WriteErr float64
	// ShortWrite is the probability a write tears: a strict prefix of
	// the buffer reaches the file, then the write errors.
	ShortWrite float64
	// SyncErr is the probability an fsync fails; the unsynced bytes are
	// dropped and the handle is poisoned (see package doc).
	SyncErr float64
	// ENOSPC is the probability an out-of-space streak starts; the
	// triggering write and the next ENOSPCLen-1 ops' writes fail with
	// ENOSPC, then space frees.
	ENOSPC float64
	// ENOSPCLen is the streak length in ops; defaults to 1 when ENOSPC
	// fires and ENOSPCLen is zero.
	ENOSPCLen int
	// Stall is the probability an op is delayed by a uniform draw in
	// (0, StallMax] before executing — a slow disk, not a failed op.
	Stall float64
	// StallMax bounds the stall; defaults to 1ms when Stall > 0.
	StallMax time.Duration
	// WriteErrAt / ShortAt / SyncErrAt / ENOSPCAt inject exactly one
	// fault at that 1-based op index (0 disables). Deterministic by
	// construction; they compose with the probabilistic fields.
	WriteErrAt int
	ShortAt    int
	SyncErrAt  int
	ENOSPCAt   int
	// PersistAfter, when positive, fails every op from that 1-based op
	// index on — a dead disk. The supervisor's rebuild-reopen cycle
	// cannot outlast it, which is what drives the shard to fail-stop.
	PersistAfter int
}

// Active reports whether the plan injects any fault at all.
func (p Plan) Active() bool {
	return p.WriteErr > 0 || p.ShortWrite > 0 || p.SyncErr > 0 || p.ENOSPC > 0 ||
		p.Stall > 0 || p.WriteErrAt > 0 || p.ShortAt > 0 || p.SyncErrAt > 0 ||
		p.ENOSPCAt > 0 || p.PersistAfter > 0
}

// Validate checks every probability is in [0,1] and bounds are sane.
func (p Plan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"writeerr", p.WriteErr}, {"shortwrite", p.ShortWrite}, {"syncerr", p.SyncErr}, {"enospc", p.ENOSPC}, {"stall", p.Stall}} {
		if pr.v < 0 || pr.v > 1 || pr.v != pr.v {
			return fmt.Errorf("diskfault: probability %s = %v outside [0,1]", pr.name, pr.v)
		}
	}
	if p.ENOSPCLen < 0 {
		return fmt.Errorf("diskfault: enospclen = %d negative", p.ENOSPCLen)
	}
	if p.StallMax < 0 {
		return fmt.Errorf("diskfault: stallmax = %v negative", p.StallMax)
	}
	for _, at := range []struct {
		name string
		v    int
	}{{"writeerrat", p.WriteErrAt}, {"shortat", p.ShortAt}, {"syncerrat", p.SyncErrAt}, {"enospcat", p.ENOSPCAt}, {"persistafter", p.PersistAfter}} {
		if at.v < 0 {
			return fmt.Errorf("diskfault: %s = %d negative", at.name, at.v)
		}
	}
	return nil
}

func (p Plan) enospcLen() int {
	if p.ENOSPCLen <= 0 {
		return 1
	}
	return p.ENOSPCLen
}

func (p Plan) stallMax() time.Duration {
	if p.StallMax <= 0 {
		return time.Millisecond
	}
	return p.StallMax
}

// ParsePlan decodes the -disk-faults flag syntax (grammar: package
// kvspec, the list alone — the language has no names), e.g.
//
//	writeerr=0.01,shortwrite=0.005,syncerr=0.01,enospc=0.002,enospclen=3,stall=0.01,stallmax=2ms,seed=7
//
// Keys are writeerr, shortwrite, syncerr, enospc, enospclen, stall,
// stallmax (a Go duration), seed, and the deterministic single-shot /
// persistent forms writeerrat, shortat, syncerrat, enospcat,
// persistafter (1-based op indexes). The empty string is a valid
// no-fault plan.
func ParsePlan(s string) (Plan, error) {
	kv, err := kvspec.ParseList("diskfault", s)
	if err != nil {
		return Plan{}, err
	}
	plan := Plan{
		Seed:         kv.Uint64("seed", 0),
		WriteErr:     kv.Float("writeerr", 0),
		ShortWrite:   kv.Float("shortwrite", 0),
		SyncErr:      kv.Float("syncerr", 0),
		ENOSPC:       kv.Float("enospc", 0),
		ENOSPCLen:    kv.Int("enospclen", 0),
		Stall:        kv.Float("stall", 0),
		StallMax:     kv.Duration("stallmax", 0),
		WriteErrAt:   kv.Int("writeerrat", 0),
		ShortAt:      kv.Int("shortat", 0),
		SyncErrAt:    kv.Int("syncerrat", 0),
		ENOSPCAt:     kv.Int("enospcat", 0),
		PersistAfter: kv.Int("persistafter", 0),
	}
	if err := kv.Err(); err != nil {
		return Plan{}, err
	}
	if err := plan.Validate(); err != nil {
		return Plan{}, err
	}
	return plan, nil
}

// FormatPlan renders a plan back into ParsePlan syntax (omitting zero
// terms; the seed is included when nonzero so a rendered plan replays).
func FormatPlan(p Plan) string {
	var terms []string
	addF := func(k string, v float64) {
		if v != 0 {
			terms = append(terms, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	addN := func(k string, v int) {
		if v != 0 {
			terms = append(terms, k+"="+strconv.Itoa(v))
		}
	}
	addF("writeerr", p.WriteErr)
	addF("shortwrite", p.ShortWrite)
	addF("syncerr", p.SyncErr)
	addF("enospc", p.ENOSPC)
	addN("enospclen", p.ENOSPCLen)
	addF("stall", p.Stall)
	if p.StallMax != 0 {
		terms = append(terms, "stallmax="+p.StallMax.String())
	}
	addN("writeerrat", p.WriteErrAt)
	addN("shortat", p.ShortAt)
	addN("syncerrat", p.SyncErrAt)
	addN("enospcat", p.ENOSPCAt)
	addN("persistafter", p.PersistAfter)
	if p.Seed != 0 {
		terms = append(terms, "seed="+strconv.FormatUint(p.Seed, 10))
	}
	sort.Strings(terms) // canonical order; ParsePlan accepts any order
	return strings.Join(terms, ",")
}

// Injector is one shard's deterministic fault source: a splitmix64
// stream seeded from (plan seed, shard) plus the shard's op counter.
// The counter spans file reopens, so persistent plans keep failing
// across the supervisor's rebuild attempts. Injectors are confined to
// their shard goroutine, like the journal writer they feed.
type Injector struct {
	plan       Plan
	shard      int
	op         uint64 // 1-based index of the op being drawn
	rng        uint64
	enospcLeft int // remaining ops of the current ENOSPC streak
	sleep      func(time.Duration)
}

// Injector returns the shard's fault source, or nil for a nil or inert
// plan — the caller then opens plain files.
func (p *Plan) Injector(shard int) *Injector {
	if p == nil || !p.Active() {
		return nil
	}
	seed := (p.Seed + 0x9e3779b97f4a7c15) ^ (uint64(shard)+1)*0xa24baed4963ee407
	splitmix64(&seed) // decorrelate nearby shards
	return &Injector{plan: *p, shard: shard, rng: seed, sleep: time.Sleep}
}

// Ops returns the number of operations drawn so far.
func (in *Injector) Ops() uint64 {
	if in == nil {
		return 0
	}
	return in.op
}

// faultKind is the outcome of one op's draw.
type faultKind int

const (
	faultNone faultKind = iota
	faultWrite
	faultShort
	faultSync
	faultENOSPC
)

// next draws the fault for the next op. Every op consumes exactly
// three draws (stall, fault, magnitude) regardless of outcome, so the
// stream position is a pure function of the op index.
func (in *Injector) next() (k faultKind, stall time.Duration, magnitude uint64) {
	in.op++
	stallDraw := float01(&in.rng)
	faultDraw := float01(&in.rng)
	magnitude = splitmix64(&in.rng)
	p := &in.plan
	if p.Stall > 0 && stallDraw < p.Stall {
		stall = 1 + time.Duration(magnitude%uint64(p.stallMax()))
	}
	// A dead disk overrides everything.
	if p.PersistAfter > 0 && in.op >= uint64(p.PersistAfter) {
		return faultSync, stall, magnitude
	}
	// Deterministic single-shot indexes, then the live ENOSPC streak,
	// then the probabilistic draws in fixed precedence order.
	switch {
	case p.WriteErrAt > 0 && in.op == uint64(p.WriteErrAt):
		return faultWrite, stall, magnitude
	case p.ShortAt > 0 && in.op == uint64(p.ShortAt):
		return faultShort, stall, magnitude
	case p.SyncErrAt > 0 && in.op == uint64(p.SyncErrAt):
		return faultSync, stall, magnitude
	case p.ENOSPCAt > 0 && in.op == uint64(p.ENOSPCAt):
		in.enospcLeft = p.enospcLen()
		return faultENOSPC, stall, magnitude
	}
	if in.enospcLeft > 0 {
		return faultENOSPC, stall, magnitude
	}
	d := faultDraw
	for _, c := range []struct {
		prob float64
		kind faultKind
	}{{p.WriteErr, faultWrite}, {p.ShortWrite, faultShort}, {p.SyncErr, faultSync}, {p.ENOSPC, faultENOSPC}} {
		if c.prob <= 0 {
			continue
		}
		if d < c.prob {
			if c.kind == faultENOSPC {
				in.enospcLeft = p.enospcLen()
			}
			return c.kind, stall, magnitude
		}
		d -= c.prob
	}
	return faultNone, stall, magnitude
}

// Open opens path through the failpoint layer. A nil Injector opens a
// plain *os.File (wrapped, inert).
func (in *Injector) Open(path string, flag int, perm os.FileMode) (*File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	size := int64(0)
	if fi, err := f.Stat(); err == nil {
		size = fi.Size()
	}
	// Bytes already in the file at open are the durable prefix the
	// caller rebuilt from (or an empty file); treat them as synced.
	return &File{f: f, in: in, size: size, synced: size}, nil
}

// File is a journal file with injected faults. It satisfies the
// server's journalFile seam (Write / Sync / Close); *os.File satisfies
// the same seam directly when no faults are configured.
type File struct {
	f        *os.File
	in       *Injector // nil = inert passthrough
	size     int64     // bytes written through this handle (incl. unsynced)
	synced   int64     // bytes confirmed by a successful fsync
	poisoned bool      // a failed fsync happened on this handle
}

// Write appends len(b) bytes, or injects a clean error, a torn prefix,
// or ENOSPC. On a poisoned handle every write fails with ErrPoisoned.
func (df *File) Write(b []byte) (int, error) {
	if df.in == nil {
		n, err := df.f.Write(b)
		df.size += int64(n)
		return n, err
	}
	if df.poisoned {
		return 0, fmt.Errorf("%w (shard %d)", ErrPoisoned, df.in.shard)
	}
	kind, stall, magnitude := df.in.next()
	if stall > 0 {
		df.in.sleep(stall)
	}
	switch kind {
	case faultWrite:
		return 0, fmt.Errorf("%w (shard %d, op %d)", ErrWrite, df.in.shard, df.in.op)
	case faultShort:
		// A strict prefix reaches the file; the torn bytes stay until
		// the rebuild truncates them away.
		k := 0
		if len(b) > 0 {
			k = int(magnitude % uint64(len(b)))
		}
		n, err := df.f.Write(b[:k])
		df.size += int64(n)
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("%w (shard %d, op %d, %d/%d bytes)", ErrTorn, df.in.shard, df.in.op, n, len(b))
	case faultENOSPC:
		if df.in.enospcLeft > 0 {
			df.in.enospcLeft--
		}
		return 0, fmt.Errorf("diskfault: injected: %w (shard %d, op %d)", syscall.ENOSPC, df.in.shard, df.in.op)
	case faultSync:
		// A sync-class fault drawn on a write op (only possible under
		// PersistAfter, which fails every op): report it as a plain
		// write error.
		return 0, fmt.Errorf("%w (shard %d, op %d)", ErrWrite, df.in.shard, df.in.op)
	}
	n, err := df.f.Write(b)
	df.size += int64(n)
	return n, err
}

// Sync makes the written bytes durable, or injects an fsync failure:
// the dirty bytes are dropped (truncated back to the last durable
// size, modeling the page cache marking them clean on error) and the
// handle is poisoned. A second Sync on a poisoned handle returns
// ErrSyncRetried forever — retrying fsync is never safe.
func (df *File) Sync() error {
	if df.in == nil {
		if err := df.f.Sync(); err != nil {
			return err
		}
		df.synced = df.size
		return nil
	}
	if df.poisoned {
		return fmt.Errorf("%w (shard %d)", ErrSyncRetried, df.in.shard)
	}
	kind, stall, _ := df.in.next()
	if stall > 0 {
		df.in.sleep(stall)
	}
	switch kind {
	case faultSync:
		df.poisoned = true
		// Drop the dirty bytes: everything written since the last
		// successful fsync vanishes, exactly what a kernel that marked
		// the pages clean on error would lose at eviction.
		if err := df.f.Truncate(df.synced); err == nil {
			df.size = df.synced
		}
		return fmt.Errorf("%w (shard %d, op %d)", ErrSync, df.in.shard, df.in.op)
	case faultENOSPC:
		if df.in.enospcLeft > 0 {
			df.in.enospcLeft--
		}
		return fmt.Errorf("diskfault: injected: %w (shard %d, op %d)", syscall.ENOSPC, df.in.shard, df.in.op)
	case faultWrite, faultShort:
		// Write-class faults drawn on a sync op surface as a generic
		// sync error without fsyncgate data loss (an EIO from the
		// device, not the page-cache pathology). The handle is still
		// poisoned: the caller cannot tell the difference and must
		// rebuild either way.
		df.poisoned = true
		return fmt.Errorf("%w (shard %d, op %d)", ErrSync, df.in.shard, df.in.op)
	}
	if err := df.f.Sync(); err != nil {
		return err
	}
	df.synced = df.size
	return nil
}

// Close closes the underlying file. Always allowed, even poisoned —
// close is the first half of the mandated discard + reopen.
func (df *File) Close() error { return df.f.Close() }

// Poisoned reports whether a failed fsync has poisoned this handle.
func (df *File) Poisoned() bool { return df.poisoned }

// splitmix64 advances the state and returns the next value (same
// generator netsim and the server's fault streams use).
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float01 draws a uniform float in [0,1) from the stream.
func float01(state *uint64) float64 {
	return float64(splitmix64(state)>>11) / (1 << 53)
}
