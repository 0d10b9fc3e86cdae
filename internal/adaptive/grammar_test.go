package adaptive

import "testing"

// The grammar's rules as ParseSpec shows them (package kvspec states them
// once; the repeated key is in TestParseSpecErrors): keys and name fold
// case and shed surrounding space, and the unknown key named is the
// alphabetically first.
func TestParseSpecGrammar(t *testing.T) {
	want, err := ParseSpec("adaptive:window=8,hysteresis=2")
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{"WINDOW=8,Hysteresis=2", " Adaptive : window = 8 , hysteresis=2 "} {
		if got, err := ParseSpec(in); err != nil || got != want {
			t.Errorf("ParseSpec(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	const wantMsg = `adaptive: unknown parameter "aa" in spec "adaptive:zz=1,window=8,aa=2"`
	if _, err := ParseSpec("adaptive:zz=1,window=8,aa=2"); err == nil || err.Error() != wantMsg {
		t.Errorf("unknown key: %v, want %s", err, wantMsg)
	}
}
