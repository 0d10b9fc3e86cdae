package netsim

import (
	"strings"
	"testing"
)

// The grammar's rules as ParseFaults shows them (package kvspec states
// them once): a repeated key is an error, keys fold case, and the unknown
// key named is the alphabetically first.
func TestParseFaultsGrammar(t *testing.T) {
	if _, err := ParseFaults("loss=0.1,loss=0.2"); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("repeated key: %v", err)
	}
	want, err := ParseFaults("loss=0.1,delaymax=4")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ParseFaults(" LOSS = 0.1 , DelayMax=4"); err != nil || got != want {
		t.Errorf("upper-case keys: %+v, %v; want %+v", got, err, want)
	}
	const wantMsg = `netsim: unknown parameter "aa" in spec "zz=1,loss=0.1,aa=2"`
	if _, err := ParseFaults("zz=1,loss=0.1,aa=2"); err == nil || err.Error() != wantMsg {
		t.Errorf("unknown key: %v, want %s", err, wantMsg)
	}
}
