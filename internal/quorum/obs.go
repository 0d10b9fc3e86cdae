package quorum

import (
	"objalloc/internal/model"
	"objalloc/internal/obs"
)

// observed runs op between two quiesced accounting snapshots and emits one
// "quorum_<kind>" event with the deltas. Quiescing keeps fire-and-forget
// traffic (read repairs, surplus vote replies) attributed to the operation
// that caused it, which is why the deltas are only meaningful under a
// sequential driver. op returns one result attribute appended to the event
// on success ("seq" for reads/writes, "missed" for recovery).
func (c *Cluster) observed(o *obs.Obs, kind string, p model.ProcessorID, op func() (obs.Attr, error)) error {
	c.AwaitHandlers()
	before := c.Traffic()
	result, err := op()
	c.AwaitHandlers()
	d := c.Traffic().Since(before)

	attrs := append([]obs.Attr{obs.Int("proc", int(p))}, d.Attrs(o, "quorum")...)
	if err == nil {
		attrs = append(attrs, result)
	} else {
		attrs = append(attrs, obs.String("error", err.Error()))
		o.Counter("quorum.errors").Inc()
	}
	o.Emit(obs.Event{Name: "quorum_" + kind, Attrs: attrs})
	o.Counter("quorum." + kind + "s").Inc()
	o.Counter("quorum.io").Add(int64(d.Inputs + d.Outputs))
	o.Histogram("quorum.op_msgs", 0, 2, 4, 8, 16, 32, 64).Observe(int64(d.Control + d.Data))
	return err
}
