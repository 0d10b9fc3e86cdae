package quorum

import (
	"objalloc/internal/model"
	"objalloc/internal/obs"
)

// observed runs op between two accounting snapshots and emits one
// "quorum_<kind>" event with the deltas. Every operation returns with the
// cluster quiescent, so fire-and-forget traffic (read repairs, surplus
// vote replies) is attributed to the operation that caused it; the deltas
// are meaningful under a sequential driver, whose snapshots bracket
// exactly one operation. op returns one result attribute appended to the
// event on success ("seq" for reads/writes, "missed" for recovery).
func (c *Cluster) observed(o *obs.Obs, kind string, p model.ProcessorID, op func() (obs.Attr, error)) error {
	before := c.Traffic()
	result, err := op()
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
