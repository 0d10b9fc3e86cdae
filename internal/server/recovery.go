// Crash recovery: the journal record formats and the deterministic
// replay that rebuilds a shard's exact state from its journal.
//
// Each shard journal is a JSONL file of request records (reqRecord)
// interleaved with periodic checkpoint records (ckptRecord, one line
// prefixed {"t":"ckpt"...}). Replay restores the latest durable
// checkpoint into a fresh shardState, then runs the tail records through
// the same step function the live shard ran (state.go) — so the rebuilt
// allocation schemes, adaptive-controller windows, fault streams,
// coalescing tables and accounting are bit-identical to the crashed
// shard's state as of its last committed round by construction, not by
// a mirrored copy. Records whose replayed outcome disagrees with the
// recorded one fail the replay loudly (config mismatch or corrupt
// journal) instead of silently diverging.
//
// Torn tails: a SIGKILL can leave a partial final write. Only complete,
// parseable lines are replayed; the torn tail is truncated before the
// journal is reopened for appending. The requests in the torn tail were
// never acked (replies are sent only after the commit's fsync returns),
// so clients retry them; retries of requests that DID reach the durable
// prefix are answered idempotently via the per-object client sequence
// horizon rebuilt here.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"objalloc/internal/cost"
	"objalloc/internal/multiobject"
)

// reqRecord is one completed request in the journal. Field order
// matters only for the first key: records start {"object": while
// checkpoints start {"t": — the replay scanner tells them apart by
// that prefix without a full parse.
type reqRecord struct {
	Object    string `json:"object"`
	Op        string `json:"op"`
	P         int    `json:"p"`
	Seq       uint64 `json:"seq,omitempty"`
	CostMilli int64  `json:"cost_milli"`
	Coalesced bool   `json:"coalesced,omitempty"`
	Retrans   int    `json:"retransmits,omitempty"`
	Err       string `json:"err,omitempty"`
}

// ckptTag is the discriminator value of a checkpoint line's leading
// "t" field.
const ckptTag = "ckpt"

// ckptPrefix distinguishes checkpoint lines; reqRecord lines start
// with {"object":.
var ckptPrefix = []byte(`{"t":`)

// ckptRecord is a shard checkpoint: shardState's export — the complete
// per-object engine state plus every table and counter replay would
// otherwise have to reconstruct from the journal's full history. A
// checkpoint is taken after a round's records commit, so the embedded
// fault-stream states account exactly for the records preceding it.
type ckptRecord struct {
	T        string                    `json:"t"` // ckptTag
	Objects  []multiobject.ObjectState `json:"objects"`
	Next     map[string]uint64         `json:"next,omitempty"`
	Streams  map[string]uint64         `json:"streams,omitempty"`
	Fresh    map[string]uint64         `json:"fresh,omitempty"`
	TraceSeq map[string]uint64         `json:"trace_seq,omitempty"`
	Extra    cost.Counts               `json:"extra,omitzero"`
	counters
}

// replayJournal rebuilds one shard's state from its journal file and
// returns it together with the length of the valid prefix (everything
// before a torn final line). A missing file replays to the empty state,
// so a first boot comes up through the same rebuild as a restart. The
// replayed state must balance its books (checkBooks) or the replay fails.
func replayJournal(path string, cfg *Config) (*shardState, int64, error) {
	st, err := newShardState(cfg)
	if err != nil {
		return nil, 0, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return st, 0, nil
		}
		return nil, 0, fmt.Errorf("server: journal %s: %w", path, err)
	}

	// Cut complete lines; bytes after the last newline are a torn tail.
	var recs [][]byte
	var ends []int64
	off := int64(0)
	for off < int64(len(data)) {
		i := bytes.IndexByte(data[off:], '\n')
		if i < 0 {
			break
		}
		recs = append(recs, data[off:off+int64(i)])
		off += int64(i) + 1
		ends = append(ends, off)
	}

	// Find the last parseable checkpoint; a torn or unparseable FINAL
	// line (checkpoint or record) is dropped, an unparseable middle
	// line is corruption.
	ckptIdx := -1
	var ckpt *ckptRecord
	for i := len(recs) - 1; i >= 0; i-- {
		if !bytes.HasPrefix(recs[i], ckptPrefix) {
			continue
		}
		var c ckptRecord
		if err := json.Unmarshal(recs[i], &c); err != nil || c.T != ckptTag {
			if i == len(recs)-1 {
				recs = recs[:i]
				ends = ends[:i]
				continue
			}
			return nil, 0, fmt.Errorf("server: journal %s: corrupt checkpoint at line %d", path, i+1)
		}
		ckptIdx, ckpt = i, &c
		break
	}
	if ckpt != nil {
		if err := st.restore(ckpt); err != nil {
			return nil, 0, fmt.Errorf("server: journal %s: %w", path, err)
		}
	}

	validLen := int64(0)
	if len(ends) > 0 {
		validLen = ends[len(ends)-1]
	}
	for i := ckptIdx + 1; i < len(recs); i++ {
		if bytes.HasPrefix(recs[i], ckptPrefix) {
			// An older checkpoint between the last one and the tail
			// cannot occur; a later one was torn and skipped above.
			continue
		}
		var rec reqRecord
		if err := json.Unmarshal(recs[i], &rec); err != nil {
			if i == len(recs)-1 {
				// Torn final record line: drop it, shorten the prefix.
				validLen = ends[i] - int64(len(recs[i])) - 1
				break
			}
			return nil, 0, fmt.Errorf("server: journal %s: corrupt record at line %d: %v", path, i+1, err)
		}
		if err := st.replay(&rec); err != nil {
			return nil, 0, fmt.Errorf("server: journal %s: line %d: %w", path, i+1, err)
		}
	}
	if err := st.checkBooks(); err != nil {
		return nil, 0, fmt.Errorf("server: journal %s: %w", path, err)
	}
	return st, validLen, nil
}

// replay re-services one journaled record through the same validate and
// step the live shard ran, then verifies the outcome against the
// recorded one, so a config mismatch or a corrupt journal fails loudly
// instead of diverging.
func (st *shardState) replay(rec *reqRecord) error {
	q, err := validate(st.cfg, rec.Object, rec.Op, rec.P)
	if err != nil {
		return err
	}
	r := st.step(rec.Object, q, rec.Seq).res
	if r.Err != nil && rec.Err == "" {
		return fmt.Errorf("record %s/%s/p%d replays to error %q, record has no error", rec.Object, rec.Op, rec.P, r.Err)
	}
	if milli(r.Cost) != rec.CostMilli || r.Retransmits != rec.Retrans || r.Coalesced != rec.Coalesced {
		return fmt.Errorf("record %s/%s/p%d replays to cost=%d retransmits=%d coalesced=%t, recorded cost=%d retransmits=%d coalesced=%t (config mismatch or corrupt journal)",
			rec.Object, rec.Op, rec.P, milli(r.Cost), r.Retransmits, r.Coalesced, rec.CostMilli, rec.Retrans, rec.Coalesced)
	}
	return nil
}

// ReplayDir rebuilds the whole service's final accounting from a
// journal directory alone, without starting a server: every shard
// journal is replayed and the results are aggregated into the same
// Stats a drained server reports (Final set; scheduling-dependent
// fields — rejected, deduped, rounds, queue gauges — are zero). The
// config must match the one the journals were written under: same
// engine, model, seed, fault plan and shard count.
func ReplayDir(cfg Config) (Stats, error) {
	if err := cfg.Normalize(); err != nil {
		return Stats{}, err
	}
	if cfg.Journal == "" {
		return Stats{}, fmt.Errorf("server: ReplayDir requires Config.Journal")
	}
	st := Stats{Engine: cfg.Engine.String(), Shards: cfg.Shards, Draining: true, Final: true}
	for i := 0; i < cfg.Shards; i++ {
		rs, _, err := replayJournal(cfg.journalPath(i), &cfg)
		if err != nil {
			return Stats{}, err
		}
		completed := st.add(rs)
		st.Accepted += completed
		st.PerShard = append(st.PerShard, ShardStats{Shard: i, Accepted: completed, Complete: completed})
	}
	st.Deduped = 0 // the last checkpoint's value, not the run's: scheduling-dependent
	return st, nil
}
