package ddmin

import (
	"errors"
	"slices"
	"testing"
)

// A planted two-element core is all that survives, and the result is
// 1-minimal: dropping either element makes keep refuse.
func TestMinFindsPlantedCore(t *testing.T) {
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	keep := func(s []int) (bool, error) { return slices.Contains(s, 3) && slices.Contains(s, 10), nil }
	got, err := Min(xs, keep)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, []int{3, 10}) {
		t.Fatalf("Min = %v, want [3 10]", got)
	}
	for i := range got {
		if ok, _ := keep(slices.Delete(slices.Clone(got), i, i+1)); ok {
			t.Errorf("dropping %d still passes: %v is not 1-minimal", got[i], got)
		}
	}
	if len(xs) != 13 || xs[3] != 3 {
		t.Errorf("Min modified its input: %v", xs)
	}
}

// keep's first error ends the loop and is what Min returns.
func TestMinReturnsKeepError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	_, err := Min([]int{1, 2, 3, 4}, func([]int) (bool, error) {
		calls++
		return false, boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("Min returned %v after %d calls, want boom after 1", err, calls)
	}
}

// The empty slice is never offered, even when keep accepts everything:
// the loop stops at one element.
func TestMinNeverOffersEmpty(t *testing.T) {
	for n := 0; n <= 9; n++ {
		got, err := Min(make([]int, n), func(s []int) (bool, error) {
			if len(s) == 0 {
				t.Fatalf("n = %d: keep offered the empty slice", n)
			}
			return true, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := min(n, 1); len(got) != want {
			t.Errorf("n = %d: Min kept %d elements, want %d", n, len(got), want)
		}
	}
}
