// Package modelflags declares the flags that fix a sharded server's
// deterministic behaviour — engine, system shape, cost model, fault
// streams — once, for the two tools that must agree on them: objallocd
// writes journals under these flags and journalcheck replays them, and a
// journal only replays under the configuration that wrote it.
package modelflags

import (
	"flag"
	"fmt"

	"objalloc/internal/adaptive"
	"objalloc/internal/cost"
	"objalloc/internal/diskfault"
	"objalloc/internal/netsim"
	"objalloc/internal/server"
)

// Flags holds the model flags registered on one flag set.
type Flags struct {
	shards, n, t, attempts               *int
	engine, adaptive, faults, diskFaults *string
	cc, cd                               *float64
	mobile, noretry                      *bool
	seed                                 *int64
}

// Bind registers the model flags on fs.
func Bind(fs *flag.FlagSet) *Flags {
	return &Flags{
		shards:     fs.Int("shards", 8, "independent shards (objects are hashed across them)"),
		engine:     fs.String("engine", "da", "per-shard engine: da, sa, adaptive (the executed ha clusters run under cmd/chaos)"),
		adaptive:   fs.String("adaptive", "", "adaptive-controller spec for -engine adaptive, e.g. adaptive:window=8,hysteresis=2,decay=0.1,start=auto,region=on"),
		n:          fs.Int("n", 8, "processors"),
		t:          fs.Int("t", 3, "availability threshold"),
		cc:         fs.Float64("cc", 0.25, "control-message cost"),
		cd:         fs.Float64("cd", 1, "data-message cost"),
		mobile:     fs.Bool("mobile", false, "mobile-computers model (I/O cost 0) instead of stationary"),
		faults:     fs.String("faults", "", "fault schedule (key=value, comma-separated; empty disables)"),
		noretry:    fs.Bool("noretry", false, "disable the retransmission discipline"),
		attempts:   fs.Int("attempts", 0, "retransmission cap per message (0 = default)"),
		seed:       fs.Int64("seed", 0, "fault-stream seed perturbation"),
		diskFaults: fs.String("disk-faults", "", "deterministic disk-fault plan for the journal (key=value, comma-separated; requires -journal; empty disables; replay validates it but injects nothing)"),
	}
}

// Config maps the parsed flags to the model half of a server.Config;
// the caller adds what is its own (queue and batch sizes, the journal
// directory, instrumentation).
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
		Model: m, Seed: *f.seed,
		Retry: netsim.RetryPolicy{Disabled: *f.noretry, MaxAttempts: *f.attempts},
	}
	plan, err := netsim.ParseFaults(*f.faults)
	if err != nil {
		return server.Config{}, err
	}
	if plan.Active() {
		cfg.Faults = &plan
	}
	dplan, err := diskfault.ParsePlan(*f.diskFaults)
	if err != nil {
		return server.Config{}, err
	}
	if dplan.Active() {
		cfg.DiskFaults = &dplan
	}
	return cfg, nil
}
