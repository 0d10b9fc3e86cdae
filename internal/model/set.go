// Package model implements the formal model of Huang & Wolfson (ICDE 1994):
// processors, read/write requests, schedules, execution sets, allocation
// schedules with saving-reads, allocation schemes, legality and
// t-availability constraints.
//
// The model is deliberately independent of any particular cost function
// (package cost) and of any particular distributed object management
// algorithm (package dom): it only describes *what happened* — which
// requests were issued, which processors executed each of them, and which
// reads saved the object locally.
package model

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// MaxProcessors is the largest number of processors a Set can hold.
// Allocation schemes are 64-bit bitsets; the exact offline optimum
// (package opt) further restricts itself to about 16 processors because its
// state space is 2^n.
const MaxProcessors = 64

// ProcessorID identifies a processor in the distributed system.
// Processors are numbered 0..n-1.
type ProcessorID int

// Set is a set of processors, represented as a 64-bit bitset.
// The zero value is the empty set. Set is a value type: all methods return
// new sets rather than mutating the receiver.
type Set uint64

// EmptySet is the set containing no processors.
const EmptySet Set = 0

// NewSet returns the set containing exactly the given processors.
// It panics if any id is outside [0, MaxProcessors).
func NewSet(ids ...ProcessorID) Set {
	var s Set
	for _, id := range ids {
		s = s.Add(id)
	}
	return s
}

// FullSet returns the set {0, 1, ..., n-1}.
// It panics unless 0 <= n <= MaxProcessors.
func FullSet(n int) Set {
	if n < 0 || n > MaxProcessors {
		panic(fmt.Sprintf("model: FullSet(%d) out of range [0,%d]", n, MaxProcessors))
	}
	if n == MaxProcessors {
		return ^Set(0)
	}
	return Set(1)<<uint(n) - 1
}

// badID panics with the out-of-range message of Add and Remove. It is kept
// out of line so that the two stay within the inliner's budget.
//
//go:noinline
func badID(id ProcessorID) {
	panic(fmt.Sprintf("model: processor id %d out of range [0,%d)", id, MaxProcessors))
}

// Add returns s ∪ {id}.
func (s Set) Add(id ProcessorID) Set {
	if uint(id) >= MaxProcessors {
		badID(id)
	}
	return s | Set(1)<<uint(id)
}

// Remove returns s \ {id}.
func (s Set) Remove(id ProcessorID) Set {
	if uint(id) >= MaxProcessors {
		badID(id)
	}
	return s &^ (Set(1) << uint(id))
}

// Contains reports whether id ∈ s.
func (s Set) Contains(id ProcessorID) bool {
	if id < 0 || id >= MaxProcessors {
		return false
	}
	return s&(Set(1)<<uint(id)) != 0
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set { return s | t }

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set { return s & t }

// Diff returns s \ t.
func (s Set) Diff(t Set) Set { return s &^ t }

// Size returns |s|.
func (s Set) Size() int { return bits.OnesCount64(uint64(s)) }

// IsEmpty reports whether s is the empty set.
func (s Set) IsEmpty() bool { return s == 0 }

// Intersects reports whether s ∩ t ≠ ∅.
func (s Set) Intersects(t Set) bool { return s&t != 0 }

// SubsetOf reports whether s ⊆ t.
func (s Set) SubsetOf(t Set) bool { return s&^t == 0 }

// Min returns the smallest processor id in s.
// It panics on the empty set.
func (s Set) Min() ProcessorID {
	if s == 0 {
		panic("model: Min of empty Set")
	}
	return ProcessorID(bits.TrailingZeros64(uint64(s)))
}

// Members returns the processors of s in increasing order.
func (s Set) Members() []ProcessorID {
	out := make([]ProcessorID, 0, s.Size())
	for v := uint64(s); v != 0; v &= v - 1 {
		out = append(out, ProcessorID(bits.TrailingZeros64(v)))
	}
	return out
}

// ForEach calls fn for every member of s in increasing order.
func (s Set) ForEach(fn func(ProcessorID)) {
	for v := uint64(s); v != 0; v &= v - 1 {
		fn(ProcessorID(bits.TrailingZeros64(v)))
	}
}

// String renders the set in the paper's notation, e.g. "{1,2,3}".
func (s Set) String() string {
	ids := s.Members()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprint(int(id))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// ParseSet parses the notation produced by String, e.g. "{0,3,5}" or "{}".
func ParseSet(text string) (Set, error) {
	t := strings.TrimSpace(text)
	if !strings.HasPrefix(t, "{") || !strings.HasSuffix(t, "}") {
		return 0, fmt.Errorf("model: malformed set %q: missing braces", text)
	}
	inner := strings.TrimSpace(t[1 : len(t)-1])
	if inner == "" {
		return EmptySet, nil
	}
	var s Set
	for _, field := range strings.Split(inner, ",") {
		var id int
		if _, err := fmt.Sscanf(strings.TrimSpace(field), "%d", &id); err != nil {
			return 0, fmt.Errorf("model: malformed set %q: bad element %q", text, field)
		}
		if id < 0 || id >= MaxProcessors {
			return 0, fmt.Errorf("model: set element %d out of range [0,%d)", id, MaxProcessors)
		}
		s = s.Add(ProcessorID(id))
	}
	return s, nil
}

// Subsets enumerates every subset of s (including the empty set and s
// itself) and calls fn on each. Enumeration order is unspecified.
func (s Set) Subsets(fn func(Set)) {
	// Standard submask enumeration: iterate sub = (sub-1) & s.
	sub := uint64(s)
	for {
		fn(Set(sub))
		if sub == 0 {
			return
		}
		sub = (sub - 1) & uint64(s)
	}
}

// RandomMember returns the k-th member (0-based, in increasing order) of s.
// It panics if k is out of range. It is used by deterministic "pick some
// member" policies that want a seeded choice rather than always Min.
func (s Set) Member(k int) ProcessorID {
	if k < 0 || k >= s.Size() {
		panic(fmt.Sprintf("model: Member(%d) of set with %d members", k, s.Size()))
	}
	v := uint64(s)
	for i := 0; i < k; i++ {
		v &= v - 1
	}
	return ProcessorID(bits.TrailingZeros64(v))
}

// SortedIDs is a convenience to sort a slice of processor ids in place and
// return it.
func SortedIDs(ids []ProcessorID) []ProcessorID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
