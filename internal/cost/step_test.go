package cost

import (
	"fmt"
	"testing"

	"objalloc/internal/model"
)

// The per-step check and count as they were written before the accept test
// and the counted-once form: model.CheckStep, cost.StepCounts and the
// model.NextScheme, Set.Add and Set.Remove they call, verbatim but for the
// package qualifiers. TestStepRulesMatchReference holds today's to them.

func refCheckID(id model.ProcessorID) {
	if id < 0 || id >= model.MaxProcessors {
		panic(fmt.Sprintf("model: processor id %d out of range [0,%d)", id, model.MaxProcessors))
	}
}

func refAdd(s model.Set, id model.ProcessorID) model.Set {
	refCheckID(id)
	return s | model.Set(1)<<uint(id)
}

func refRemove(s model.Set, id model.ProcessorID) model.Set {
	refCheckID(id)
	return s &^ (model.Set(1) << uint(id))
}

func refNextScheme(cur model.Set, st model.Step) model.Set {
	switch {
	case st.Request.IsWrite():
		return st.Exec
	case st.Saving:
		return refAdd(cur, st.Request.Processor)
	default:
		return cur
	}
}

func refCheckStep(i int, st model.Step, scheme model.Set, t int) (model.Set, *model.Violation) {
	if st.Exec.IsEmpty() {
		return scheme, &model.Violation{Index: i, Reason: fmt.Sprintf("%v has an empty execution set", st.Request)}
	}
	switch {
	case st.Request.IsRead():
		if !st.Exec.Intersects(scheme) {
			return scheme, &model.Violation{Index: i, Reason: fmt.Sprintf("read %v has execution set %v disjoint from allocation scheme %v", st.Request, st.Exec, scheme)}
		}
	case st.Saving:
		return scheme, &model.Violation{Index: i, Reason: fmt.Sprintf("write %v marked as saving-read", st.Request)}
	}
	next := refNextScheme(scheme, st)
	if next.Size() < t {
		return scheme, &model.Violation{Index: i, Reason: fmt.Sprintf("allocation scheme %v after %v has %d members, t-availability requires %d", next, st.Request, next.Size(), t)}
	}
	return next, nil
}

func refStepCounts(st model.Step, scheme model.Set) Counts {
	i := st.Request.Processor
	x := st.Exec
	switch {
	case st.Request.IsRead():
		var c Counts
		if x.Contains(i) {
			c = Counts{Control: x.Size() - 1, Data: x.Size() - 1, IO: x.Size()}
		} else {
			c = Counts{Control: x.Size(), Data: x.Size(), IO: x.Size()}
		}
		if st.Saving {
			c.IO++
		}
		return c
	default: // write
		obsolete := scheme.Diff(x)
		if !x.Contains(i) {
			obsolete = refRemove(obsolete, i)
		}
		c := Counts{Control: obsolete.Size(), IO: x.Size()}
		if x.Contains(i) {
			c.Data = x.Size() - 1
		} else {
			c.Data = x.Size()
		}
		return c
	}
}

// outcome is what one call returned, rendered, or the value it panicked
// with.
func outcome(f func() string) (s string) {
	defer func() {
		if r := recover(); r != nil {
			s = fmt.Sprintf("panic: %#v", r)
		}
	}()
	return f()
}

// Exhaustively over four processors and one id out of range: every op
// (and one that is neither), requesting processor, execution set and
// scheme over the four, Saving value and t in {1, 2, 3}. model.CheckStep
// must return the reference's next scheme and the very Violation, or
// panic with the same value, and StepCounts the same counts or the same
// panic.
func TestStepRulesMatchReference(t *testing.T) {
	const n = 4
	ids := []model.ProcessorID{0, 1, 2, 3, model.MaxProcessors}
	cases := 0
	for _, op := range []model.Op{model.Read, model.Write, model.Write + 1} {
		for _, p := range ids {
			for exec := model.Set(0); exec < 1<<n; exec++ {
				for scheme := model.Set(0); scheme < 1<<n; scheme++ {
					for _, saving := range []bool{false, true} {
						st := model.Step{Request: model.Request{Op: op, Processor: p}, Exec: exec, Saving: saving}
						for tAvail := 1; tAvail <= 3; tAvail++ {
							check := func(f func(int, model.Step, model.Set, int) (model.Set, *model.Violation)) func() string {
								return func() string {
									next, v := f(9, st, scheme, tAvail)
									if v != nil {
										return fmt.Sprintf("%v %#v %q", next, *v, v.Error())
									}
									return fmt.Sprintf("%v <nil>", next)
								}
							}
							if got, want := outcome(check(model.CheckStep)), outcome(check(refCheckStep)); got != want {
								t.Fatalf("CheckStep(%v saving=%v, scheme %v, t=%d) = %s, reference %s", st.Request, saving, scheme, tAvail, got, want)
							}
							cases++
						}
						counts := func(f func(model.Step, model.Set) Counts) func() string {
							return func() string { return f(st, scheme).String() }
						}
						if got, want := outcome(counts(StepCounts)), outcome(counts(refStepCounts)); got != want {
							t.Fatalf("StepCounts(%v saving=%v, exec %v, scheme %v) = %s, reference %s", st.Request, saving, exec, scheme, got, want)
						}
					}
				}
			}
		}
	}
	if want := 3 * len(ids) * (1 << n) * (1 << n) * 2 * 3; cases != want {
		t.Fatalf("checked %d cases, want %d", cases, want)
	}
}
