package diskfault

import (
	"strings"
	"testing"
)

// The grammar's rules as ParsePlan shows them (package kvspec states them
// once): a repeated key is an error, keys fold case, and the unknown key
// named is the alphabetically first.
func TestParsePlanGrammar(t *testing.T) {
	if _, err := ParsePlan("writeerr=0.1,writeerr=0.2"); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("repeated key: %v", err)
	}
	want, err := ParsePlan("writeerr=0.1,stallmax=2ms")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ParsePlan(" WRITEERR = 0.1 , StallMax=2ms"); err != nil || got != want {
		t.Errorf("upper-case keys: %+v, %v; want %+v", got, err, want)
	}
	const wantMsg = `diskfault: unknown parameter "aa" in spec "zz=1,writeerr=0.1,aa=2"`
	if _, err := ParsePlan("zz=1,writeerr=0.1,aa=2"); err == nil || err.Error() != wantMsg {
		t.Errorf("unknown key: %v, want %s", err, wantMsg)
	}
}
