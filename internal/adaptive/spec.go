// Package adaptive implements an online allocation controller that switches
// an object between the paper's two protocols — read-one-write-all Static
// Allocation (SA, §4.2.1) and Dynamic Allocation (DA, §4.2.2) — while the
// object is being served.
//
// Neither protocol dominates: the winner depends on where the cost model
// lands in the (cd, cc) plane of figures 1 and 2 and on the read/write mix
// of the workload. The controller first applies the paper's analytic region
// test; when the bounds decide the point, the winning protocol is pinned
// and the controller is indistinguishable from it. In the unknown region it
// keeps a sliding-window estimate of the object's access pattern, prices
// the window under both protocols with the exact §3.2 charge formulas, and
// switches when the estimate has favored the other protocol for a
// hysteresis run of consecutive requests. Every switch is billed through
// cost.TransitionCounts — replica installs and invalidations at paper
// prices — so adaptive cost is directly comparable to pure SA, pure DA and
// the offline optimum. The regret harness in this package's regret_test.go
// measures exactly those ratios.
package adaptive

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"objalloc/internal/kvspec"
)

// Defaults used when the corresponding Spec field is zero.
const (
	// DefaultWindow is the sliding-window length in requests.
	DefaultWindow = 64
	// DefaultHysteresis is the number of consecutive requests the window
	// estimate must favor the other protocol before the controller
	// switches.
	DefaultHysteresis = 4
)

// Disabled is the sentinel for "never": a Spec with Window or Hysteresis
// set to Disabled pins the controller to its starting protocol. The spec
// string spells it "inf".
const Disabled = -1

// Spec configures one adaptive controller. The zero value selects the
// defaults (window 64, hysteresis 4, no decay, automatic start, region
// test enabled); Normalize resolves them.
type Spec struct {
	// Window is the sliding-window length in requests. Zero selects
	// DefaultWindow; Disabled (spec string "inf") turns adaptation off
	// entirely, pinning the starting protocol.
	Window int
	// Hysteresis is how many consecutive requests the window estimate
	// must favor the other protocol before a switch. Zero selects
	// DefaultHysteresis; Disabled ("inf") means never switch.
	Hysteresis int
	// Decay in [0, 1) exponentially discounts older window entries: after
	// each request every entry's weight is multiplied by 1−Decay, so a
	// departing entry weighs (1−Decay)^Window. Zero keeps plain counts.
	Decay float64
	// Start names the protocol the controller begins with: "sa", "da",
	// or "auto" (the region test's winner when decisive, otherwise DA —
	// the paper's recommendation wherever it is competitive). Empty means
	// "auto".
	Start string
	// IgnoreRegion skips the figure 1/2 analytic region test, forcing
	// the controller to adapt from measurements even where the paper's
	// bounds already decide the point. Spec string key: region=off.
	IgnoreRegion bool
}

// Normalize validates the spec and resolves defaults in place: zero Window
// and Hysteresis become DefaultWindow and DefaultHysteresis, negative
// values collapse to Disabled, and Start is lower-cased with "" meaning
// "auto".
func (s *Spec) Normalize() error {
	if s.Window == 0 {
		s.Window = DefaultWindow
	}
	if s.Window < 0 {
		s.Window = Disabled
	}
	if s.Hysteresis == 0 {
		s.Hysteresis = DefaultHysteresis
	}
	if s.Hysteresis < 0 {
		s.Hysteresis = Disabled
	}
	if s.Window > 0 && s.Window > maxWindow {
		return fmt.Errorf("adaptive: window %d exceeds maximum %d", s.Window, maxWindow)
	}
	if math.IsNaN(s.Decay) || s.Decay < 0 || s.Decay >= 1 {
		return fmt.Errorf("adaptive: decay %g outside [0, 1)", s.Decay)
	}
	s.Start = strings.ToLower(strings.TrimSpace(s.Start))
	switch s.Start {
	case "":
		s.Start = "auto"
	case "auto", "sa", "da":
	default:
		return fmt.Errorf("adaptive: unknown start protocol %q (want sa, da or auto)", s.Start)
	}
	return nil
}

// maxWindow bounds the ring buffer so a hostile spec string cannot ask for
// an absurd per-object allocation.
const maxWindow = 1 << 20

// Pinned reports whether the spec disables switching outright (infinite
// window or infinite hysteresis). A pinned controller behaves exactly like
// its starting protocol. Call Normalize first.
func (s Spec) Pinned() bool { return s.Window == Disabled || s.Hysteresis == Disabled }

// String renders the spec in the canonical compact form accepted by
// ParseSpec, e.g. "adaptive:window=64,hysteresis=4,decay=0,start=auto,region=on".
func (s Spec) String() string {
	inf := func(v int) string {
		if v == Disabled {
			return "inf"
		}
		return strconv.Itoa(v)
	}
	region := "on"
	if s.IgnoreRegion {
		region = "off"
	}
	start := s.Start
	if start == "" {
		start = "auto"
	}
	return fmt.Sprintf("adaptive:window=%s,hysteresis=%s,decay=%s,start=%s,region=%s",
		inf(s.Window), inf(s.Hysteresis), strconv.FormatFloat(s.Decay, 'g', -1, 64), start, region)
}

// ParseSpec parses the compact textual controller specification the CLIs
// accept (grammar: package kvspec):
//
//	adaptive[:key=value[,key=value...]]
//
// The leading "adaptive" name is optional, so both
// "adaptive:window=8,hysteresis=2" and "window=8" parse. Keys (all
// optional):
//
//	window      sliding-window length in requests; "inf" disables adaptation
//	hysteresis  consecutive requests before a switch; "inf" means never
//	decay       exponential decay of window entries, in [0, 1)
//	start       starting protocol: sa, da, auto
//	region      on (default) applies the figure 1/2 region test; off skips it
//
// An empty string yields the normalized zero Spec (all defaults). The
// returned Spec is normalized.
func ParseSpec(spec string) (Spec, error) {
	p, err := kvspec.Parse("adaptive", spec)
	if err != nil {
		return Spec{}, err
	}
	if p.Name != "" && p.Name != "adaptive" {
		return Spec{}, fmt.Errorf("adaptive: unknown controller %q in spec %q", p.Name, spec)
	}
	intOrInf := func(key string) int {
		raw, ok := p.Lookup(key)
		if !ok {
			return 0
		}
		if strings.EqualFold(raw, "inf") {
			return Disabled
		}
		v := p.Int(key, 0)
		if v < 1 {
			p.Bad(key, `a positive integer or "inf"`)
		}
		return v
	}
	s := Spec{Window: intOrInf("window"), Hysteresis: intOrInf("hysteresis"), Decay: p.Float("decay", 0)}
	if !(s.Decay >= 0 && s.Decay < 1) {
		p.Bad("decay", "a value in [0, 1)")
	}
	s.Start, _ = p.Lookup("start")
	if raw, ok := p.Lookup("region"); ok {
		switch strings.ToLower(raw) {
		case "on":
		case "off":
			s.IgnoreRegion = true
		default:
			p.Bad("region", "on or off")
		}
	}
	if err := p.Err(); err != nil {
		return Spec{}, err
	}
	if err := s.Normalize(); err != nil {
		return Spec{}, err
	}
	return s, nil
}
