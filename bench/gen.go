package main

import (
	"fmt"

	"objalloc/internal/model"
	"objalloc/internal/server"
)

// The request mix every serving workload and ladder rung shares: 64
// objects, 8 processors, uniform object and processor, 30 % writes.
const (
	genObjects    = 64
	genProcessors = 8
	genPWrite     = 0.3
)

// generator produces the request stream on the fly from a seed, so the
// driver holds O(batch) memory and the system under test sees only
// generated inputs. Two generators with the same seed produce the same
// stream, which is how the cost reference replays a run after the fact.
type generator struct {
	state uint64
	names [genObjects]string
	seqs  [genObjects]uint64
}

func newGenerator(seed int64) *generator {
	g := &generator{state: uint64(seed)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019}
	for i := range g.names {
		g.names[i] = fmt.Sprintf("obj-%d", i)
	}
	return g
}

// splitmix64 is the generator's only source of randomness: fixed
// arithmetic, so the stream cannot change under a Go upgrade.
func (g *generator) splitmix64() uint64 {
	g.state += 0x9e3779b97f4a7c15
	z := g.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fill overwrites batch with the next len(batch) requests, stamping
// each with its object's next sequence number (from 1).
func (g *generator) fill(batch []server.WireRequest) {
	for i := range batch {
		o := g.splitmix64() % genObjects
		p := g.splitmix64() % genProcessors
		op := "r"
		if float64(g.splitmix64()>>11)/(1<<53) < genPWrite {
			op = "w"
		}
		g.seqs[o]++
		batch[i] = server.WireRequest{Object: g.names[o], Op: op, Processor: int(p), Seq: g.seqs[o]}
	}
}

// modelRequest is the in-process form of a wire request.
func modelRequest(wr server.WireRequest) model.Request {
	if wr.Op == "w" {
		return model.W(model.ProcessorID(wr.Processor))
	}
	return model.R(model.ProcessorID(wr.Processor))
}
