package kvspec

import (
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// pairs renders what a spec holds, sorted: the grammar's whole output.
func pairs(s *Spec) string {
	var terms []string
	for k, v := range s.vals {
		terms = append(terms, k+"="+v)
	}
	sort.Strings(terms)
	return strings.Join(terms, ",")
}

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		in, name, pairs string
		wantErr         string // substring; "" means accepted
	}{
		{in: "", name: "", pairs: ""},
		{in: "   ", name: "", pairs: ""},
		{in: "uniform", name: "uniform", pairs: ""},                            // name without colon
		{in: "uniform:", name: "uniform", pairs: ""},                           // name with empty list
		{in: "uniform:  ", name: "uniform", pairs: ""},                         // blank list is empty
		{in: "a=1,b=2", name: "", pairs: "a=1,b=2"},                            // bare list
		{in: " Uniform : N = 4 , Len=7 ", name: "uniform", pairs: "len=7,n=4"}, // trimming, case-folding
		{in: "x:hot={4;5},when=1:30", name: "x", pairs: "hot={4;5},when=1:30"}, // only the first colon splits
		{in: "x:a=b=c", name: "x", pairs: "a=b=c"},                             // only the first '=' splits
		{in: "x:a=", name: "x", pairs: "a="},                                   // empty value is the caller's business
		{in: "x:A=Mixed", name: "x", pairs: "a=Mixed"},                         // values keep their case
		{in: ":a=1", wantErr: "empty name"},
		{in: "x:a=1,", wantErr: `malformed parameter ""`},       // empty term
		{in: "x:a=1,,b=2", wantErr: `malformed parameter ""`},   // empty term
		{in: "x:a", wantErr: `malformed parameter "a"`},         // missing '='
		{in: "x:=1", wantErr: `malformed parameter "=1"`},       // empty key
		{in: "x: =1", wantErr: `malformed parameter " =1"`},     // empty key after trimming
		{in: "x:a=1,A=2", wantErr: `duplicate parameter "a"`},   // repeated key, after folding
		{in: "a=1,b=2,a=3", wantErr: `duplicate parameter "a"`}, // repeated key in a bare list
	} {
		s, err := Parse("pkg", tc.in)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("Parse(%q): error %v, want one containing %q", tc.in, err, tc.wantErr)
			} else if !strings.HasPrefix(err.Error(), "pkg: ") || !strings.Contains(err.Error(), strconv.Quote(tc.in)) {
				t.Errorf("Parse(%q): error %q lacks the caller's prefix or the whole spec", tc.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if s.Name != tc.name || pairs(s) != tc.pairs {
			t.Errorf("Parse(%q) = name %q pairs %q, want %q %q", tc.in, s.Name, pairs(s), tc.name, tc.pairs)
		}
	}
}

// A language without names reads the whole string as the list: what Parse
// would take for a name is a malformed term or part of a key.
func TestParseList(t *testing.T) {
	if _, err := ParseList("pkg", "loss"); err == nil || !strings.Contains(err.Error(), `malformed parameter "loss"`) {
		t.Errorf(`ParseList("loss"): %v`, err)
	}
	s, err := ParseList("pkg", "x:a=1")
	if err != nil || s.Name != "" || pairs(s) != "x:a=1" {
		t.Errorf(`ParseList("x:a=1") = %+v, %v; want the key "x:a"`, s, err)
	}
	if s, err := ParseList("pkg", " "); err != nil || pairs(s) != "" {
		t.Errorf("blank list: %+v, %v", s, err)
	}
}

func TestGettersAndErr(t *testing.T) {
	const spec = "x:i=7,f=0.5,u=18446744073709551615,d=2ms,raw=hello"
	s, err := Parse("pkg", spec)
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := s.Lookup("raw")
	if s.Int("i", 1) != 7 || s.Float("f", 1) != 0.5 || s.Uint64("u", 1) != 1<<64-1 ||
		s.Duration("d", 1) != 2*time.Millisecond || raw != "hello" || !ok {
		t.Error("typed getters misread their values")
	}
	if s.Int("absent", 3) != 3 || s.Float("absent", 0.25) != 0.25 || s.Duration("absent", time.Second) != time.Second {
		t.Error("absent keys do not yield their defaults")
	}
	if err := s.Err(); err != nil {
		t.Errorf("every key asked for, none malformed: %v", err)
	}

	// The first malformed value wins, in the order the caller asked, and
	// beats any unknown key.
	s, _ = Parse("pkg", "x:a=one,b=two,zz=1")
	if got := s.Int("b", 9); got != 9 {
		t.Errorf("malformed value read as %d, want the default", got)
	}
	s.Float("a", 0)
	s.Bad("a", "ignored: not the first")
	want := `pkg: bad b="two" in spec "x:a=one,b=two,zz=1" (want an integer)`
	if err := s.Err(); err == nil || err.Error() != want {
		t.Errorf("Err() = %v, want %s", err, want)
	}

	// The unknown key named is the alphabetically first, every time.
	for i := 0; i < 50; i++ {
		s, _ = Parse("pkg", "x:zz=1,known=1,aa=2,mm=3")
		s.Int("known", 0)
		want := `pkg: unknown parameter "aa" in spec "x:zz=1,known=1,aa=2,mm=3"`
		if err := s.Err(); err == nil || err.Error() != want {
			t.Fatalf("call %d: Err() = %v, want %s", i, err, want)
		}
	}
}

// FuzzKVSpec holds the lexing to "never panics, and what it accepts it
// accepts canonically": the name and pairs of an accepted input, rendered
// back sorted, parse to the same name and pairs.
func FuzzKVSpec(f *testing.F) {
	for _, seed := range []string{
		"", "uniform", "uniform:", "uniform:n=8,pwrite=0.3", "loss=0.05,delay=0.1",
		"stall=1,stallmax=2ms,seed=1", "adaptive:window=8,hysteresis=2", "hotspot:hot={4;5}",
		" Uniform : N = 4 ", "a=1,", "a", "=1", ":a=1", "a=1,A=2", "x:a=b:c=d", "x:a==,b= ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := Parse("fuzz", in)
		if err != nil {
			return
		}
		rendered := pairs(s)
		if s.Name != "" {
			rendered = s.Name + ":" + rendered
		}
		back, err := Parse("fuzz", rendered)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, its rendering %q rejected: %v", in, rendered, err)
		}
		if back.Name != s.Name || pairs(back) != pairs(s) {
			t.Fatalf("Parse(%q) = %q %q, but rendering %q reads %q %q", in, s.Name, pairs(s), rendered, back.Name, pairs(back))
		}
	})
}
