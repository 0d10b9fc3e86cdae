package server

import (
	"fmt"
	"strings"
)

// Engine selects the per-shard object-management engine. Every engine
// is a DOM algorithm factory over the analytic multi-object directory,
// so every engine checkpoints, recovers, draws from the fault streams
// and (where it is free) coalesces alike.
type Engine int

const (
	// EngineDA manages every object with the paper's dynamic allocation
	// algorithm over the analytic multi-object directory.
	EngineDA Engine = iota
	// EngineSA manages every object with read-one-write-all static
	// allocation over the analytic multi-object directory.
	EngineSA
	// EngineAdaptive manages every object with the online adaptive
	// controller over the analytic multi-object directory: each object's
	// read/write mix is estimated over a sliding window and the object is
	// switched between SA and DA live, with protocol transitions billed
	// at paper prices. Configured via Config.Adaptive.
	EngineAdaptive
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineDA:
		return "da"
	case EngineSA:
		return "sa"
	case EngineAdaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseEngine parses an engine name: "da", "sa" or "adaptive". The
// executed high-availability clusters are not a serving engine — they
// honour none of the service's determinism and recovery guarantees —
// and are driven by cmd/chaos instead.
func ParseEngine(s string) (Engine, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "da", "":
		return EngineDA, nil
	case "sa":
		return EngineSA, nil
	case "adaptive":
		return EngineAdaptive, nil
	default:
		return 0, fmt.Errorf("server: unknown engine %q (want da, sa or adaptive; the ha clusters run under cmd/chaos, not the server)", s)
	}
}
