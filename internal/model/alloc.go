package model

import (
	"fmt"
	"strings"
)

// Step is one element of an allocation schedule: a request, its execution
// set, and — for reads — whether the read is a saving-read (the reading
// processor stores the object in its local database, joining the
// allocation scheme).
type Step struct {
	Request Request
	// Exec is the execution set of the request: for a write, the set of
	// processors that output the new version to their local database
	// (which becomes the new allocation scheme); for a read, the set of
	// processors from which the object is retrieved.
	Exec Set
	// Saving marks a saving-read (underlined read in the paper's
	// notation). It must be false for writes.
	Saving bool
}

// String renders the step as e.g. "r4{1,2}" or "R4{1}" — a saving-read is
// rendered with an upper-case R, standing in for the paper's underline.
func (st Step) String() string {
	op := st.Request.Op.String()
	if st.Saving {
		op = "R"
	}
	return fmt.Sprintf("%s%d%s", op, int(st.Request.Processor), st.Exec)
}

// AllocSchedule is an execution schedule in which some reads may have been
// converted into saving-reads (§3.1): a sequence of requests each with its
// execution set.
type AllocSchedule []Step

// String renders the allocation schedule, e.g. "w2{2,3} r4{1,2} R1{2}".
func (a AllocSchedule) String() string {
	parts := make([]string, len(a))
	for i, st := range a {
		parts[i] = st.String()
	}
	return strings.Join(parts, " ")
}

// Schedule returns the schedule that corresponds to the allocation schedule:
// the same requests with execution sets removed and saving-reads turned back
// into plain reads.
func (a AllocSchedule) Schedule() Schedule {
	out := make(Schedule, len(a))
	for i, st := range a {
		out[i] = st.Request
	}
	return out
}

// SchemeAt returns the allocation scheme at step index i (0-based): the set
// of processors holding the latest version right before step i executes,
// given the initial allocation scheme. SchemeAt(len(a), initial) returns the
// scheme after the whole allocation schedule has executed.
//
// Scheme evolution (§3.1):
//   - a write with execution set X replaces the scheme with X;
//   - a saving-read by processor p adds p to the scheme;
//   - a plain read leaves the scheme unchanged.
func (a AllocSchedule) SchemeAt(i int, initial Set) Set {
	if i < 0 || i > len(a) {
		panic(fmt.Sprintf("model: SchemeAt(%d) on allocation schedule of length %d", i, len(a)))
	}
	scheme := initial
	for _, st := range a[:i] {
		scheme = NextScheme(scheme, st)
	}
	return scheme
}

// NextScheme returns the allocation scheme after executing step st when the
// scheme before st is cur.
func NextScheme(cur Set, st Step) Set {
	switch {
	case st.Request.IsWrite():
		return st.Exec
	case st.Saving:
		return cur.Add(st.Request.Processor)
	default:
		return cur
	}
}

// FinalScheme returns the allocation scheme after the whole allocation
// schedule executes, starting from initial.
func (a AllocSchedule) FinalScheme(initial Set) Set {
	return a.SchemeAt(len(a), initial)
}

// Violation describes why an allocation schedule is not a legal,
// t-available allocation schedule.
type Violation struct {
	// Index is the 0-based step at which the violation occurs, or -1 for
	// violations of the initial scheme.
	Index int
	// Reason is a human-readable explanation.
	Reason string
}

func (v Violation) Error() string {
	if v.Index < 0 {
		return "model: initial scheme: " + v.Reason
	}
	return fmt.Sprintf("model: step %d: %s", v.Index, v.Reason)
}

// Validate checks that the allocation schedule is legal and satisfies the
// t-available constraint, starting from the given initial allocation scheme.
// It returns nil if the schedule is valid, or the first violation found.
//
// The checks, from §3.1:
//
//  1. the initial scheme has at least t members;
//  2. every execution set is non-empty;
//  3. every read's execution set intersects the allocation scheme at the
//     read (legality);
//  4. writes are never marked Saving;
//  5. the allocation scheme at every request — i.e. before every step —
//     and the final scheme have at least t members. For a write this means
//     |Exec| >= t.
//
// It is CheckInitial followed by CheckStep on every step; a caller that
// produces the steps one at a time calls the two itself and never holds
// the schedule.
func (a AllocSchedule) Validate(initial Set, t int) error {
	if v := CheckInitial(initial, t); v != nil {
		return v
	}
	scheme := initial
	for i, st := range a {
		next, v := CheckStep(i, st, scheme, t)
		if v != nil {
			return v
		}
		scheme = next
	}
	return nil
}

// CheckInitial is check 1 of Validate: nil, or the violation of the
// initial scheme.
func CheckInitial(initial Set, t int) *Violation {
	if initial.Size() < t {
		return &Violation{Index: -1, Reason: fmt.Sprintf("initial scheme %v has %d members, t-availability requires %d", initial, initial.Size(), t)}
	}
	return nil
}

// CheckStep is checks 2 to 5 of Validate for step i of an allocation
// schedule, given the allocation scheme before it: it returns the scheme
// after the step, or the step's first violation.
//
// It is a branch-only accept test, with nothing to format on its path: a
// step it does not accept goes to explainStep, which makes the checks one
// by one in the order above and says which one failed.
func CheckStep(i int, st Step, scheme Set, t int) (Set, *Violation) {
	next, ok := st.Exec, st.Exec != 0 && !st.Saving && st.Request.Op == Write
	if st.Request.Op == Read {
		next, ok = scheme, st.Exec&scheme != 0
		if p := uint(st.Request.Processor); st.Saving {
			next, ok = scheme|Set(1)<<p, ok && p < MaxProcessors
		}
	}
	if ok && next.Size() >= t {
		return next, nil
	}
	return explainStep(i, st, scheme, t)
}

// explainStep is CheckStep one check at a time: the scheme after step i,
// or the step's first violation.
//
//go:noinline
func explainStep(i int, st Step, scheme Set, t int) (Set, *Violation) {
	if st.Exec.IsEmpty() {
		return scheme, &Violation{Index: i, Reason: fmt.Sprintf("%v has an empty execution set", st.Request)}
	}
	switch {
	case st.Request.IsRead():
		if !st.Exec.Intersects(scheme) {
			return scheme, &Violation{Index: i, Reason: fmt.Sprintf("read %v has execution set %v disjoint from allocation scheme %v", st.Request, st.Exec, scheme)}
		}
	case st.Saving:
		return scheme, &Violation{Index: i, Reason: fmt.Sprintf("write %v marked as saving-read", st.Request)}
	}
	next := NextScheme(scheme, st)
	if next.Size() < t {
		return scheme, &Violation{Index: i, Reason: fmt.Sprintf("allocation scheme %v after %v has %d members, t-availability requires %d", next, st.Request, next.Size(), t)}
	}
	return next, nil
}

// CorrespondsTo reports whether the allocation schedule corresponds to the
// given schedule: same length, same requests in the same order (§3.1).
func (a AllocSchedule) CorrespondsTo(s Schedule) bool {
	if len(a) != len(s) {
		return false
	}
	for i := range a {
		if a[i].Request != s[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the allocation schedule.
func (a AllocSchedule) Clone() AllocSchedule {
	out := make(AllocSchedule, len(a))
	copy(out, a)
	return out
}
