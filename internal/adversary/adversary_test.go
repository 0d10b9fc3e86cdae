package adversary

import (
	"testing"

	"objalloc/internal/model"
)

func TestSAPunisher(t *testing.T) {
	s := SAPunisher(5, 4)
	if s.String() != "r5 r5 r5 r5" {
		t.Errorf("SAPunisher = %q", s.String())
	}
	if SAPunisher(5, 0) == nil {
		// Zero-length run is an empty, non-nil-safe schedule; just check length.
		t.Log("zero run returns empty schedule")
	}
	if len(SAPunisher(5, 0)) != 0 {
		t.Error("zero run not empty")
	}
}

func TestDAPunisher(t *testing.T) {
	s, err := DAPunisher([]model.ProcessorID{2, 3}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.String() != "r2 r3 w0 r2 r3 w0" {
		t.Errorf("DAPunisher = %q", s.String())
	}
	if s.Writes() != 2 {
		t.Errorf("writes = %d", s.Writes())
	}
	if _, err := DAPunisher(nil, 0, 2); err == nil {
		t.Error("empty reader list accepted")
	}
}

func TestPingPong(t *testing.T) {
	s := PingPong(1, 2, 3)
	if s.String() != "w1 r2 w1 r2 w1 r2" {
		t.Errorf("PingPong = %q", s.String())
	}
}

func TestConvergentPunisher(t *testing.T) {
	s := ConvergentPunisher(4, 0, 3, 2)
	// Each round: 2 reads from 4, then 3 writes from 0.
	if len(s) != 2*(2+3) {
		t.Fatalf("len = %d", len(s))
	}
	if s[0] != model.R(4) || s[1] != model.R(4) || s[2] != model.W(0) {
		t.Errorf("round structure wrong: %v", s)
	}
	reads := s.Reads()
	if reads != 4 {
		t.Errorf("reads = %d, want 4", reads)
	}
}

// One period of each family, outsiders from t on; none without outsiders.
func TestFamilies(t *testing.T) {
	var got []string
	for _, f := range Families(5, 2) {
		got = append(got, f.Name+": "+f.Period.String())
	}
	want := []string{"read-run (Prop 1/3): r2", "ping-pong: w0 r2", "outsider rounds (Prop 2): r2 r3 r4 w0"}
	if len(got) != len(want) {
		t.Fatalf("Families(5, 2) = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Families(5, 2)[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if f := Families(2, 2); f != nil {
		t.Errorf("Families(2, 2) = %v, want none", f)
	}
}
