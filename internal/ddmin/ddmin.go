// Package ddmin is the delta-debugging loop every shrinker in the
// repository shares.
package ddmin

import "slices"

// Min returns a 1-minimal subsequence of xs that keep accepts: dropping
// any one element of it makes keep refuse. It removes contiguous chunks,
// from half the length down: it slides a chunk by one, rescans from the
// start after every removal, and halves the chunk only when a pass removes
// nothing. An accepted candidate is the current sequence from then on, so
// the last one keep accepts is the result. keep is never offered the empty
// slice, and its first error ends the loop and is returned.
func Min[T any](xs []T, keep func([]T) (bool, error)) ([]T, error) {
	cur := slices.Clone(xs)
	for chunk := len(cur) / 2; chunk >= 1; chunk /= 2 {
		for start := 0; start+chunk <= len(cur) && chunk < len(cur); start++ {
			candidate := slices.Concat(cur[:start], cur[start+chunk:])
			ok, err := keep(candidate)
			if err != nil {
				return nil, err
			}
			if ok {
				cur, start = candidate, -1 // rescan: the indices shifted
			}
		}
	}
	return cur, nil
}
