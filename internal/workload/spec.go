package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"objalloc/internal/kvspec"
	"objalloc/internal/model"
)

// FromSpec builds a schedule from a compact textual specification, the
// format the CLIs accept (grammar: package kvspec):
//
//	name[:key=value[,key=value...]]
//
// Names and their keys (all keys optional, all numbers non-negative):
//
//	uniform     n, len, pwrite
//	zipf        n, len, pwrite, s
//	bursty      n, bursts, burstlen, pwrite
//	hotspot     n, len, pwrite, hot (comma-free set like {4;5}), frac
//	mobile      n, moves, reads
//	publishing  n, revisions, readers
//	satellite   n, objects, reads
//
// Examples: "uniform:n=6,len=300,pwrite=0.2", "mobile:n=8,moves=50,reads=4".
func FromSpec(rng *rand.Rand, spec string) (model.Schedule, error) {
	p, err := kvspec.Parse("workload", spec)
	if err != nil {
		return nil, err
	}
	num := func(key string, def int) int { return nonNegative(p, key, p.Int(key, def)) }
	flt := func(key string, def float64) float64 { return nonNegative(p, key, p.Float(key, def)) }

	// Every case reads its keys first and builds only once p.Err has
	// passed them: a generator is never handed a rejected value.
	var build func() model.Schedule
	switch p.Name {
	case "uniform":
		n, length, pw := num("n", 6), num("len", 200), flt("pwrite", 0.3)
		build = func() model.Schedule { return Uniform(rng, n, length, pw) }
	case "zipf":
		n, length, pw, s := num("n", 6), num("len", 200), flt("pwrite", 0.3), flt("s", 1.8)
		build = func() model.Schedule { return Zipf(rng, n, length, pw, s) }
	case "bursty":
		n, bursts, bl, pw := num("n", 6), num("bursts", 50), flt("burstlen", 5), flt("pwrite", 0.3)
		build = func() model.Schedule { return Bursty(rng, n, bursts, bl, pw) }
	case "hotspot":
		n, length, pw, frac := num("n", 6), num("len", 200), flt("pwrite", 0.3), flt("frac", 0.8)
		hot := model.NewSet(model.ProcessorID(4))
		if raw, ok := p.Lookup("hot"); ok {
			// Sets use ';' between elements so they survive the
			// ','-separated parameter list, e.g. hot={4;5}.
			if hot, err = model.ParseSet(strings.ReplaceAll(raw, ";", ",")); err != nil {
				p.Bad("hot", "a set such as {4;5}: "+err.Error())
			}
		}
		build = func() model.Schedule { return Hotspot(rng, n, length, pw, hot, frac) }
	case "mobile":
		n, moves, reads := num("n", 8), num("moves", 50), flt("reads", 4)
		build = func() model.Schedule { return MobileTrace(rng, n, moves, reads) }
	case "publishing":
		n, revisions, readers := num("n", 8), num("revisions", 40), num("readers", 6)
		build = func() model.Schedule { return Publishing(rng, n, revisions, model.NewSet(0, 1), readers) }
	case "satellite":
		n, objects, reads := num("n", 6), num("objects", 60), flt("reads", 3)
		build = func() model.Schedule { return AppendOnly(rng, n, objects, reads) }
	default:
		return nil, fmt.Errorf("workload: unknown workload %q in spec %q", p.Name, spec)
	}
	if err := p.Err(); err != nil {
		return nil, err
	}
	return build(), nil
}

func nonNegative[T int | float64](p *kvspec.Spec, key string, v T) T {
	if v < 0 {
		p.Bad(key, "a non-negative number")
	}
	return v
}
