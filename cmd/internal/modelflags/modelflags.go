// Package modelflags declares the flags that fix a sharded server's
// deterministic behaviour — engine, system shape, cost model, loss
// streams — once, for the two tools that must agree on them: objallocd
// writes journals under these flags and journalcheck replays them, and a
// journal only replays under the configuration that wrote it.
package modelflags

import (
	"flag"
	"fmt"

	"objalloc/internal/adaptive"
	"objalloc/internal/cost"
	"objalloc/internal/kvspec"
	"objalloc/internal/server"
)

// Flags holds the model flags registered on one flag set.
type Flags struct {
	shards, n, t, attempts   *int
	engine, adaptive, faults *string
	cc, cd                   *float64
	mobile                   *bool
	seed                     *int64
}

// Bind registers the model flags on fs.
func Bind(fs *flag.FlagSet) *Flags {
	return &Flags{
		shards:   fs.Int("shards", 8, "independent shards (objects are hashed across them)"),
		engine:   fs.String("engine", "da", "per-shard engine: da, sa, adaptive (the executed ha clusters run under cmd/chaos)"),
		adaptive: fs.String("adaptive", "", "adaptive-controller spec for -engine adaptive, e.g. adaptive:window=8,hysteresis=2,decay=0.1,start=auto,region=on"),
		n:        fs.Int("n", 8, "processors"),
		t:        fs.Int("t", 3, "availability threshold"),
		cc:       fs.Float64("cc", 0.25, "control-message cost"),
		cd:       fs.Float64("cd", 1, "data-message cost"),
		mobile:   fs.Bool("mobile", false, "mobile-computers model (I/O cost 0) instead of stationary"),
		faults:   fs.String("faults", "", "message-loss plan, loss=P[,seed=S] (the only message fault the cost model prices; dup, delay and flap keys are refused; empty disables)"),
		attempts: fs.Int("attempts", 0, "attempts per message before it is unreachable (0 = default 10; 1 = no retransmission)"),
		seed:     fs.Int64("seed", 0, "fault-stream seed perturbation"),
	}
}

// Config maps the parsed flags to the model half of a server.Config;
// the caller adds what is its own (queue and batch sizes, the journal
// directory and its disk faults, instrumentation). -faults is a kvspec
// list with two keys: loss, the per-attempt loss probability (Loss,
// default 0), and seed, an unsigned integer (LossSeed, default 0).
// -attempts is Attempts.
func (f *Flags) Config() (server.Config, error) {
	eng, err := server.ParseEngine(*f.engine)
	if err != nil {
		return server.Config{}, err
	}
	if *f.adaptive != "" && eng != server.EngineAdaptive {
		return server.Config{}, fmt.Errorf("-adaptive requires -engine adaptive (got %s)", eng)
	}
	aspec, err := adaptive.ParseSpec(*f.adaptive)
	if err != nil {
		return server.Config{}, err
	}
	m := cost.SC(*f.cc, *f.cd)
	if *f.mobile {
		m = cost.MC(*f.cc, *f.cd)
	}
	cfg := server.Config{
		Shards: *f.shards, Engine: eng, Adaptive: aspec, N: *f.n, T: *f.t,
		Model: m, Seed: *f.seed, Attempts: *f.attempts,
	}
	kv, err := kvspec.ParseList("modelflags", *f.faults)
	if err != nil {
		return server.Config{}, err
	}
	// The network simulator's link faults are refused by name, set at all
	// (zero included): the daemon has no links to duplicate, delay or
	// flap. The list mirrors the link keys of netsim.ParseFaults's key
	// table; a key netsim adds later is still refused, by kv.Err below as
	// an unknown parameter.
	for _, key := range []string{"dup", "delay", "delaymax", "flap", "flaplen"} {
		if v, ok := kv.Lookup(key); ok {
			return server.Config{}, fmt.Errorf("-faults sets %s=%s: the service injects loss alone, the one message fault the cost model prices", key, v)
		}
	}
	cfg.Loss = kv.Float("loss", 0) // Normalize checks it is in [0,1]
	cfg.LossSeed = kv.Uint64("seed", 0)
	if err := kv.Err(); err != nil {
		return server.Config{}, err
	}
	return cfg, nil
}
