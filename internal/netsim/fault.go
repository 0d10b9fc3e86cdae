package netsim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"objalloc/internal/kvspec"
	"objalloc/internal/model"
)

// FaultPlan describes the adversarial behavior of every link: independent
// per-message loss, duplication and bounded delay, plus transient link
// flaps (bursts of consecutive drops). All randomness derives from Seed
// through a per-link splitmix64 stream advanced once per send on that
// link, so a plan's behavior is a pure function of (Seed, link, per-link
// send index) — independent of what the other links carry — and chaos runs
// are replayable from the seed alone.
//
// The zero FaultPlan is inert: Active() reports false and the network
// behaves exactly as an un-faulted one.
type FaultPlan struct {
	// Seed is the root of every per-link random stream.
	Seed uint64
	// Loss is the probability a message is dropped in transit.
	Loss float64
	// Dup is the probability a delivered message arrives twice.
	Dup float64
	// Delay is the probability a message is held in the link's delivery
	// queue and released only after DelayMax later sends on the link (or
	// at the next quiescence flush), allowing later messages to overtake
	// it — bounded reordering in virtual time.
	Delay float64
	// DelayMax bounds the hold in per-link ticks; it defaults to 1 when
	// Delay > 0 and DelayMax is zero.
	DelayMax int
	// Flap is the probability, per send, that the link goes down for
	// FlapLen subsequent sends (the triggering send is dropped too).
	Flap float64
	// FlapLen is the length of a flap burst in sends; defaults to 1 when
	// Flap > 0 and FlapLen is zero.
	FlapLen int
}

// Active reports whether the plan injects any fault at all.
func (p FaultPlan) Active() bool {
	return p.Loss > 0 || p.Dup > 0 || p.Delay > 0 || p.Flap > 0
}

// Validate checks every probability is in [0,1] and bounds are sane.
func (p FaultPlan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"loss", p.Loss}, {"dup", p.Dup}, {"delay", p.Delay}, {"flap", p.Flap}} {
		if pr.v < 0 || pr.v > 1 || pr.v != pr.v {
			return fmt.Errorf("netsim: fault probability %s = %v outside [0,1]", pr.name, pr.v)
		}
	}
	if p.DelayMax < 0 {
		return fmt.Errorf("netsim: DelayMax = %d negative", p.DelayMax)
	}
	if p.FlapLen < 0 {
		return fmt.Errorf("netsim: FlapLen = %d negative", p.FlapLen)
	}
	return nil
}

func (p FaultPlan) delayMax() uint64 {
	if p.DelayMax <= 0 {
		return 1
	}
	return uint64(p.DelayMax)
}

func (p FaultPlan) flapLen() uint64 {
	if p.FlapLen <= 0 {
		return 1
	}
	return uint64(p.FlapLen)
}

// RetryPolicy tunes the retransmission discipline of the protocol engines
// layered on the network (packages sim, quorum, ha). The zero value means
// "automatic": retries engage — with the default attempt cap — exactly
// when the network has an active FaultPlan, so un-faulted clusters pay
// nothing and send no acknowledgement traffic.
type RetryPolicy struct {
	// Disabled switches the retransmission discipline off even on a lossy
	// network — the configuration the chaos tests use to demonstrate that
	// the invariants genuinely depend on retries.
	Disabled bool
	// MaxAttempts caps retransmissions of one message (0 means the
	// default of 10). When the cap is exhausted the engine gives up and
	// surfaces an Unreachable error.
	MaxAttempts int
}

// DefaultMaxAttempts is the retransmission cap when MaxAttempts is zero.
const DefaultMaxAttempts = 10

// Attempts returns the effective retransmission cap.
func (p RetryPolicy) Attempts() int {
	if p.MaxAttempts <= 0 {
		return DefaultMaxAttempts
	}
	return p.MaxAttempts
}

// Backoff returns the number of virtual retry rounds to wait before
// retransmission number attempt (1-based): capped exponential backoff
// 1, 2, 4, 8, 8, 8, ...
func (p RetryPolicy) Backoff(attempt int) int {
	if attempt > 3 {
		return 8
	}
	return 1 << uint(attempt)
}

// Unreachable is the give-up error of the retransmission discipline: the
// peer did not acknowledge within the retry budget, or the failure
// detector reported it down mid-operation.
type Unreachable struct {
	Peer model.ProcessorID
}

// Error implements error.
func (u Unreachable) Error() string {
	return fmt.Sprintf("netsim: processor %d unreachable", u.Peer)
}

// DropReason classifies why a message was not delivered.
type DropReason int

const (
	// DropNone means the message was delivered.
	DropNone DropReason = iota
	// DropClosed: the network was shut down.
	DropClosed
	// DropUnknown: the destination id has no endpoint.
	DropUnknown
	// DropCrashedDest: the destination processor is crashed.
	DropCrashedDest
	// DropCrashedSrc: the sending processor is crashed.
	DropCrashedSrc
	// DropPartitioned: the link is partitioned.
	DropPartitioned
	// DropLoss: the fault plan lost the message.
	DropLoss
	// DropFlap: the message fell into a link-flap burst.
	DropFlap
)

// String implements fmt.Stringer.
func (r DropReason) String() string {
	switch r {
	case DropNone:
		return "none"
	case DropClosed:
		return "closed"
	case DropUnknown:
		return "unknown-dest"
	case DropCrashedDest:
		return "crashed-dest"
	case DropCrashedSrc:
		return "crashed-src"
	case DropPartitioned:
		return "partitioned"
	case DropLoss:
		return "loss"
	case DropFlap:
		return "flap"
	default:
		return fmt.Sprintf("DropReason(%d)", int(r))
	}
}

// Structural reports whether the drop is one the fail-stop failure
// detector can observe (crash, partition, unknown id, shutdown) rather
// than a silent probabilistic fault. Structural drops of detectable
// request traffic bounce a TNack back to the sender; probabilistic drops
// are silent and left to the timeout/retransmission discipline.
func (r DropReason) Structural() bool {
	switch r {
	case DropClosed, DropUnknown, DropCrashedDest, DropPartitioned:
		return true
	default:
		return false
	}
}

// link is the per-ordered-pair fault state: a splitmix64 stream, a send
// counter (the link's virtual clock), the end tick of the current flap
// burst, and the delivery queue of held (delayed) messages.
type link struct {
	rng       Stream
	tick      uint64
	downUntil uint64
	held      []heldMessage
}

type heldMessage struct {
	due uint64 // link tick at which the message becomes deliverable
	seq uint64 // global hold order, for a stable release sort
	m   Message
}

// Stream is a seeded splitmix64 stream, the generator behind every draw a
// FaultPlan causes: one per link here, one per object in package server.
// The value is the whole state, so a checkpoint stores it as a uint64.
type Stream uint64

// Next advances the stream and returns the next 64-bit value.
func (s *Stream) Next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// Float01 draws a uniform float in [0,1).
func (s *Stream) Float01() float64 { return float64(s.Next()>>11) / (1 << 53) }

func linkSeed(root uint64, from, to model.ProcessorID) Stream {
	s := Stream(root ^ (uint64(from)+1)*0xA24BAED4963EE407 ^ (uint64(to)+1)*0x9FB21C651E98DF25)
	// One scramble so adjacent (from,to) pairs decorrelate.
	return Stream(s.Next())
}

func (nw *Network) linkOf(from, to model.ProcessorID) *link {
	k := linkKey(from, to)
	l, ok := nw.links[k]
	if !ok {
		l = &link{rng: linkSeed(nw.plan.Seed, from, to)}
		nw.links[k] = l
	}
	return l
}

// dueHeld removes and returns, in (due, hold-order) order, every
// held message of l whose time has come. all releases everything.
func (l *link) dueHeld(all bool) []heldMessage {
	if len(l.held) == 0 {
		return nil
	}
	var out, keep []heldMessage
	for _, h := range l.held {
		if all || h.due <= l.tick {
			out = append(out, h)
		} else {
			keep = append(keep, h)
		}
	}
	l.held = keep
	sort.Slice(out, func(i, j int) bool {
		if out[i].due != out[j].due {
			return out[i].due < out[j].due
		}
		return out[i].seq < out[j].seq
	})
	return out
}

// ParseFaults decodes the -faults flag syntax (grammar: package kvspec,
// the list alone — the language has no names), e.g.
//
//	loss=0.15,dup=0.1,delay=0.2,delaymax=4,flap=0.01,flaplen=3
//
// Keys are loss, dup, delay, delaymax, flap, flaplen, and seed; unknown
// keys, malformed numbers, and out-of-range probabilities are errors. The
// empty string is a valid no-fault plan.
func ParseFaults(s string) (FaultPlan, error) {
	kv, err := kvspec.ParseList("netsim", s)
	if err != nil {
		return FaultPlan{}, err
	}
	plan := FaultPlan{
		Seed:     kv.Uint64("seed", 0),
		Loss:     kv.Float("loss", 0),
		Dup:      kv.Float("dup", 0),
		Delay:    kv.Float("delay", 0),
		DelayMax: kv.Int("delaymax", 0),
		Flap:     kv.Float("flap", 0),
		FlapLen:  kv.Int("flaplen", 0),
	}
	if err := kv.Err(); err != nil {
		return FaultPlan{}, err
	}
	if err := plan.Validate(); err != nil {
		return FaultPlan{}, err
	}
	return plan, nil
}

// FormatFaults renders a plan back into ParseFaults syntax (omitting zero
// terms and the seed, which the scenario carries separately).
func FormatFaults(p FaultPlan) string {
	var terms []string
	add := func(k string, v float64) {
		if v != 0 {
			terms = append(terms, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	add("loss", p.Loss)
	add("dup", p.Dup)
	add("delay", p.Delay)
	if p.DelayMax != 0 {
		terms = append(terms, "delaymax="+strconv.Itoa(p.DelayMax))
	}
	add("flap", p.Flap)
	if p.FlapLen != 0 {
		terms = append(terms, "flaplen="+strconv.Itoa(p.FlapLen))
	}
	return strings.Join(terms, ",")
}
