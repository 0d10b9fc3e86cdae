package sim

import (
	"objalloc/internal/model"
	"objalloc/internal/netsim"
	"objalloc/internal/obs"
)

// emitRequest emits the per-request event and bumps the registry, given
// the traffic d the request caused and the allocation scheme before it. It
// returns the scheme after the request, which callers thread through as
// the next request's "before" scheme. Only called on observed clusters;
// emission order is schedule order.
func (c *Cluster) emitRequest(o *obs.Obs, index int, q model.Request, d netsim.Traffic, prevScheme model.Set) model.Set {
	kind := "write"
	if q.IsRead() {
		kind = "read"
	}
	scheme := c.Scheme()

	attrs := []obs.Attr{
		obs.Int("index", index),
		obs.String("kind", kind),
		obs.Int("proc", int(q.Processor)),
	}
	attrs = append(attrs, d.Attrs(o, "sim")...)
	attrs = append(attrs, obs.String("scheme", scheme.String()))
	if scheme != prevScheme {
		attrs = append(attrs, obs.String("scheme_prev", prevScheme.String()))
		o.Counter("sim.scheme.transitions").Inc()
	}
	o.Emit(obs.Event{Name: "request", Attrs: attrs})

	o.Counter("sim.requests").Inc()
	o.Counter("sim.requests." + kind).Inc()
	o.Counter("sim.io.inputs").Add(int64(d.Inputs))
	o.Counter("sim.io.outputs").Add(int64(d.Outputs))
	o.Histogram("sim.request_msgs", 0, 1, 2, 4, 8, 16, 32, 64).Observe(int64(d.Control + d.Data))
	o.Histogram("sim.request_io", 0, 1, 2, 4, 8, 16, 32).Observe(int64(d.Inputs + d.Outputs))
	return scheme
}

// emitReadBurst emits the aggregate event of one maximal run of concurrent
// reads (RunConcurrent's §3.1 semantics). The reads of a burst are all in
// flight before any reply is handled, so which of them a message belongs
// to is not a question the model answers; the burst's deltas are a
// function of the schedule, like every other count.
func (c *Cluster) emitReadBurst(o *obs.Obs, index, count int, d netsim.Traffic, prevScheme model.Set) model.Set {
	scheme := c.Scheme()
	attrs := []obs.Attr{
		obs.Int("index", index),
		obs.Int("count", count),
		obs.Int("ctl", d.Control),
		obs.Int("data", d.Data),
		obs.Int("io", d.Inputs+d.Outputs),
		obs.String("scheme", scheme.String()),
	}
	if scheme != prevScheme {
		attrs = append(attrs, obs.String("scheme_prev", prevScheme.String()))
		o.Counter("sim.scheme.transitions").Inc()
	}
	o.Emit(obs.Event{Name: "readburst", Attrs: attrs})
	o.Counter("sim.requests").Add(int64(count))
	o.Counter("sim.requests.read").Add(int64(count))
	o.Counter("sim.msg.control").Add(int64(d.Control))
	o.Counter("sim.msg.data").Add(int64(d.Data))
	o.Counter("sim.io.inputs").Add(int64(d.Inputs))
	o.Counter("sim.io.outputs").Add(int64(d.Outputs))
	return scheme
}
