// The request state machine: everything about a shard that a request's
// outcome is a function of, and the one function that advances it.
//
// The paper's cost model makes a request's outcome a pure function of
// (object state, request, fault draws). shardState is that object state
// for one shard and step is that function. The live shard loop wraps
// step in scheduling (mailbox, journal staging, acks — shard.go); journal replay wraps the very same step in verification
// against the recorded outcome (recovery.go); a checkpoint is the state's
// export, and recovery installs a replayed state whole. There is no
// second copy of any of it to keep in sync.
package server

import (
	"fmt"
	"maps"
	"sync/atomic"

	"objalloc/internal/cost"
	"objalloc/internal/model"
	"objalloc/internal/multiobject"
)

// counters is a shard's deterministic request accounting as plain
// values: a checkpoint's counter block verbatim (embedded in ckptRecord,
// so the JSON tags below are the on-disk format) and what a Stats
// snapshot aggregates.
type counters struct {
	Completed uint64 `json:"completed"`
	Reads     uint64 `json:"reads,omitempty"`
	Writes    uint64 `json:"writes,omitempty"`
	Coalesced uint64 `json:"coalesced,omitempty"`
	Retrans   uint64 `json:"retransmits,omitempty"`
	Unreach   uint64 `json:"unreachable,omitempty"`
	// Deduped counts idempotently answered client retries. Dedups leave
	// no journal record, so after a recovery the value is the last
	// checkpoint's — scheduling-dependent, outside the determinism
	// contract.
	Deduped uint64 `json:"deduped,omitempty"`
}

// liveCounters is the same accounting on a live state, plus the running
// books: the billed message and I/O counts and the object count. Written
// by the goroutine that owns the state, read by concurrent Stats scrapes.
type liveCounters struct {
	completed, reads, writes, coalesced, retrans, unreach, deduped atomic.Uint64
	control, data, io, objects                                     atomic.Int64
}

// bill advances the running books by k.
func (c *liveCounters) bill(k cost.Counts) {
	c.control.Add(int64(k.Control))
	c.data.Add(int64(k.Data))
	c.io.Add(int64(k.IO))
}

// books reads the running books.
func (c *liveCounters) books() (cost.Counts, int) {
	k := cost.Counts{Control: int(c.control.Load()), Data: int(c.data.Load()), IO: int(c.io.Load())}
	return k, int(c.objects.Load())
}

func (c *liveCounters) load() counters {
	return counters{
		Completed: c.completed.Load(),
		Reads:     c.reads.Load(),
		Writes:    c.writes.Load(),
		Coalesced: c.coalesced.Load(),
		Retrans:   c.retrans.Load(),
		Unreach:   c.unreach.Load(),
		Deduped:   c.deduped.Load(),
	}
}

func (c *liveCounters) store(v counters) {
	c.completed.Store(v.Completed)
	c.reads.Store(v.Reads)
	c.writes.Store(v.Writes)
	c.coalesced.Store(v.Coalesced)
	c.retrans.Store(v.Retrans)
	c.unreach.Store(v.Unreach)
	c.deduped.Store(v.Deduped)
}

// shardState is one shard's request state: the engine directory plus
// every table a request's outcome depends on or advances. Apart from
// ctr it is confined to the goroutine that owns it — the shard loop for
// an installed state, the replaying goroutine for one being rebuilt —
// and readable by the server goroutine once the loops have exited.
type shardState struct {
	cfg *Config // normalized, immutable

	db      *multiobject.DB
	next    map[string]uint64    // per-object next expected client seq (wire dedup horizon)
	streams map[string]*splitmix // per-object loss stream states
	fresh   map[string]model.Set // processors holding a current copy (coalescing); nil = off
	seq     map[string]uint64    // per-object trace sequence numbers; nil = tracing off
	ctr     liveCounters
}

func newShardState(cfg *Config) (*shardState, error) {
	db, err := multiobject.Open(multiobject.Config{Factory: cfg.factory, T: cfg.T, Model: cfg.Model})
	if err != nil {
		return nil, err
	}
	st := &shardState{
		cfg:     cfg,
		db:      db,
		next:    make(map[string]uint64),
		streams: make(map[string]*splitmix),
	}
	if cfg.coalesce {
		st.fresh = make(map[string]model.Set)
	}
	if cfg.Trace.Enabled() {
		st.seq = make(map[string]uint64)
	}
	return st, nil
}

// validate is the one check of a request's shape — a known op, a named
// object, a processor inside [0,N) — shared by the HTTP wire (a whole
// batch, before any of it is consumed), the in-process entry point and
// journal replay, which must not trust bytes it did not write.
func validate(cfg *Config, object, op string, processor int) (model.Request, error) {
	q, ok := parseOp(op)
	if !ok {
		return q, fmt.Errorf("server: bad op %q (want r or w)", op)
	}
	if object == "" {
		return q, fmt.Errorf("server: empty object name")
	}
	if processor < 0 || processor >= cfg.N {
		return q, fmt.Errorf("server: processor %d outside [0,%d)", processor, cfg.N)
	}
	q.Processor = model.ProcessorID(processor)
	return q, nil
}

// outcome is what one step produced: the request's result, itemized
// engine detail and trace sequence.
type outcome struct {
	res      Result
	detail   multiobject.Detail
	traceSeq uint64
}

// step services one validated request against the state: loss draws
// from the object's deterministic stream,
// then coalescing, then the engine, then the completion bookkeeping
// (dedup horizon, trace sequence, counters). seq is the client sequence
// number, 0 for none. It is the only place in the package where a
// request changes state, for live service and replay alike.
func (st *shardState) step(object string, q model.Request, seq uint64) (out outcome) {
	out.res.Object = object
	delivered := true
	if st.cfg.Loss > 0 {
		s := st.stream(object)
		delivered = false
		for a := 0; a < st.cfg.Attempts && !delivered; a++ {
			if s.float01() < st.cfg.Loss {
				out.res.Retransmits++
			} else {
				delivered = true
			}
		}
		// Every lost attempt was a control message on the wire.
		st.ctr.retrans.Add(uint64(out.res.Retransmits))
		st.ctr.control.Add(int64(out.res.Retransmits))
	}
	switch {
	case !delivered:
		// The retry budget ran out: the request is consumed, billed for
		// its retransmissions, and never reaches the engine.
		out.res.Err = Unreachable{Peer: q.Processor}
		st.ctr.unreach.Add(1)
	case st.fresh != nil && q.IsRead() && st.fresh[object].Contains(q.Processor):
		// Coalesced: this processor already holds a current copy, the
		// read is local and free under the mobile model.
		out.res.Coalesced = true
		st.ctr.coalesced.Add(1)
		st.ctr.reads.Add(1)
	default:
		out.detail, out.res.Err = st.db.ApplyDetail(object, q)
		st.ctr.bill(out.detail.Counts)
		if out.detail.Created {
			st.ctr.objects.Add(1)
		}
		if st.fresh != nil && out.res.Err == nil {
			if q.IsRead() {
				// The saving read installed a copy at the reader.
				st.fresh[object] = st.fresh[object].Add(q.Processor)
			} else {
				// A write invalidates every remote copy.
				delete(st.fresh, object)
			}
		}
		if q.IsRead() {
			st.ctr.reads.Add(1)
		} else {
			st.ctr.writes.Add(1)
		}
	}
	out.res.Cost = out.detail.Cost + float64(out.res.Retransmits)*st.cfg.Model.CC
	if seq != 0 && seq >= st.next[object] {
		st.next[object] = seq + 1
	}
	if st.seq != nil {
		out.traceSeq = st.seq[object]
		st.seq[object] = out.traceSeq + 1
	}
	st.ctr.completed.Add(1)
	return out
}

// stream returns the object's loss stream state, seeding it on first
// touch from (loss seed ⊕ config seed, object hash) — a function of the
// object alone, never of the shard or the batch, so loss outcomes are
// identical at any shard count.
func (st *shardState) stream(object string) *splitmix {
	s, ok := st.streams[object]
	if !ok {
		seed := (st.cfg.LossSeed ^ uint64(st.cfg.Seed)) * 0x9e3779b97f4a7c15
		v := splitmix(seed ^ fnv64a(object))
		s = &v
		s.next() // burn one draw to decorrelate nearby seeds
		st.streams[object] = s
	}
	return s
}

// splitmix is a seeded splitmix64 stream, the generator behind the
// per-object loss draws and the client's retry jitter. The value is the
// whole state, so a checkpoint stores it as a uint64; the constants are
// part of the journal format (a checkpoint's streams and every replayed
// loss draw depend on them).
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// float01 draws a uniform float in [0,1).
func (s *splitmix) float01() float64 { return float64(s.next()>>11) / (1 << 53) }

// export serializes the state as a checkpoint record. The three engines
// all export, so a failure here is a bug surfacing as a checkpoint fault.
func (st *shardState) export() (*ckptRecord, error) {
	objs, err := st.db.Export()
	if err != nil {
		return nil, err
	}
	// omitempty drops the tables that are empty or switched off.
	rec := &ckptRecord{
		T: ckptTag, Objects: objs, Next: st.next, TraceSeq: st.seq,
		Streams:  make(map[string]uint64, len(st.streams)),
		Fresh:    make(map[string]uint64, len(st.fresh)),
		counters: st.ctr.load(),
	}
	rec.Extra.Control = int(rec.Retrans) // the retransmission billing
	for obj, s := range st.streams {
		rec.Streams[obj] = uint64(*s)
	}
	for obj, s := range st.fresh {
		rec.Fresh[obj] = uint64(s)
	}
	return rec, nil
}

// restore is export's inverse, onto a fresh state nothing else can see
// yet. Tables the config has switched off (coalescing, tracing) stay
// off whatever the checkpoint carries. The books are derived, not stored:
// its objects' counts plus its retransmission billing (Extra).
func (st *shardState) restore(c *ckptRecord) error {
	if err := st.db.Restore(c.Objects); err != nil {
		return err
	}
	for _, o := range c.Objects {
		st.ctr.bill(o.Counts)
	}
	st.ctr.bill(c.Extra)
	st.ctr.objects.Store(int64(len(c.Objects)))
	maps.Copy(st.next, c.Next)
	for obj, v := range c.Streams {
		s := splitmix(v)
		st.streams[obj] = &s
	}
	if st.fresh != nil {
		for obj, s := range c.Fresh {
			st.fresh[obj] = model.Set(s)
		}
	}
	if st.seq != nil {
		maps.Copy(st.seq, c.TraceSeq)
	}
	st.ctr.store(c.counters)
	return nil
}

// checkBooks is the books invariant (DESIGN §6, item 10): the running
// books equal the directory's totals plus the retransmission billing, one
// control message per lost attempt. It reads the directory, so it runs
// where nothing else uses the state: after replay, and at drain.
func (st *shardState) checkBooks() error {
	books, objects := st.ctr.books()
	dir, extra := st.db.TotalCounts(), cost.Counts{Control: int(st.ctr.retrans.Load())}
	if want := dir.Add(extra); books != want || objects != st.db.Objects() {
		return fmt.Errorf("books %v over %d objects, directory %v + retransmissions %v = %v over %d objects",
			books, objects, dir, extra, want, st.db.Objects())
	}
	return nil
}
