package workload

import (
	"strings"
	"testing"
)

// The grammar's rules as FromSpec shows them (package kvspec states them
// once): a repeated key is an error, keys and name fold case and shed
// surrounding space, and the unknown key named is the alphabetically
// first — the same message on every call.
func TestFromSpecGrammar(t *testing.T) {
	if _, err := FromSpec(rng(), "uniform:n=4,n=5"); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("repeated key: %v", err)
	}
	want, err := FromSpec(rng(), "uniform:n=4,len=30")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"uniform:N=4,LEN=30", " uniform :n=4,len=30", "UNIFORM: n = 4 , len = 30 "} {
		got, err := FromSpec(rng(), spec)
		if err != nil || got.String() != want.String() {
			t.Errorf("%q: %v, schedule equal to the canonical spelling's: %v", spec, err, err == nil && got.String() == want.String())
		}
	}
	const wantMsg = `workload: unknown parameter "aa" in spec "uniform:zz=1,aa=2,mm=3"`
	for i := 0; i < 50; i++ {
		if _, err := FromSpec(rng(), "uniform:zz=1,aa=2,mm=3"); err == nil || err.Error() != wantMsg {
			t.Fatalf("call %d: %v, want %s", i, err, wantMsg)
		}
	}
}
