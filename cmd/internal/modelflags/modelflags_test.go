package modelflags

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"objalloc/internal/server"
)

// TestModelFlagParity pins the model flag set both tools share: 11
// names and defaults, registered by objallocd and journalcheck through
// Bind (a second declaration of one of them on the same flag set
// panics), and a bad -engine or -adaptive value refused in the words
// both used.
func TestModelFlagParity(t *testing.T) {
	want := map[string]string{
		"shards": "8", "engine": "da", "adaptive": "", "n": "8", "t": "3",
		"cc": "0.25", "cd": "1", "mobile": "false",
		"faults": "", "attempts": "0", "seed": "0",
	}
	newSet := func(name string) (*flag.FlagSet, *Flags) {
		fs := flag.NewFlagSet(name, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		return fs, Bind(fs)
	}
	fs, _ := newSet("parity")
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	if len(got) != len(want) {
		t.Errorf("Bind registered %d flags, want %d: %v", len(got), len(want), got)
	}
	for name, def := range want {
		if d, ok := got[name]; !ok || d != def {
			t.Errorf("flag -%s: default %q (registered %v), want %q", name, d, ok, def)
		}
	}

	for _, tool := range []string{"objallocd", "journalcheck"} {
		src, err := os.ReadFile("../../" + tool + "/main.go")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), "modelflags.Bind(fs)") {
			t.Errorf("cmd/%s does not take its model flags from modelflags.Bind", tool)
		}
	}
	for _, tc := range []struct{ arg, wantErr string }{
		{"-engine=ha", `server: unknown engine "ha" (want da, sa or adaptive; the ha clusters run under cmd/chaos, not the server)`},
		{"-adaptive=window=8", "-adaptive requires -engine adaptive (got da)"},
	} {
		fs, flags := newSet("reject")
		if err := fs.Parse([]string{tc.arg}); err != nil {
			t.Fatal(err)
		}
		if _, err := flags.Config(); err == nil || err.Error() != tc.wantErr {
			t.Errorf("%s: error %v, want %q", tc.arg, err, tc.wantErr)
		}
	}
}

// TestConfigRejectsLinkFlaps: the service injects loss alone, the one
// message fault the cost model prices. A -faults value that sets a
// duplication, delay or link-flap key is refused by Config, naming
// -faults and the key — set alone, beside loss, or set to zero; the same keys stay legal for cmd/chaos and domsim,
// which run real links. loss and seed map to Loss and LossSeed, and
// -attempts to Attempts.
func TestConfigRejectsLinkFlaps(t *testing.T) {
	config := func(args ...string) (server.Config, error) {
		fs := flag.NewFlagSet("faults", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		flags := Bind(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return flags.Config()
	}
	for _, tc := range []struct{ key, arg string }{
		{"flap", "-faults=flap=0.5,flaplen=3"},
		{"flaplen", "-faults=flaplen=3"},
		{"flap", "-faults=loss=0.1,FLAP=0.01"},
		{"dup", "-faults=loss=0.1,dup=0.1"},
		{"delay", "-faults=delay=0.2,seed=3"},
		{"delaymax", "-faults=delaymax=4"},
		{"delaymax", "-faults=loss=0.1,delaymax=4"},
		{"dup", "-faults=dup=0"},
	} {
		_, err := config(tc.arg)
		if err == nil || !strings.Contains(err.Error(), "-faults") || !strings.Contains(err.Error(), tc.key+"=") {
			t.Errorf("%s: error %v, want a refusal naming -faults and %s", tc.arg, err, tc.key)
		}
	}
	for _, arg := range []string{"-faults=loss=x", "-faults=loss=0.1,loss=0.2", "-faults=seed=-1", "-faults=bogus=1"} {
		if _, err := config(arg); err == nil {
			t.Errorf("%s accepted", arg)
		}
	}
	cfg, err := config("-faults=loss=0.1,seed=3", "-attempts=3")
	if err != nil {
		t.Fatalf("a loss-only plan is refused: %v", err)
	}
	if cfg.Loss != 0.1 || cfg.LossSeed != 3 || cfg.Attempts != 3 {
		t.Errorf("-faults=loss=0.1,seed=3 -attempts=3: Loss = %v, LossSeed = %d, Attempts = %d", cfg.Loss, cfg.LossSeed, cfg.Attempts)
	}
	if err := cfg.Normalize(); err != nil {
		t.Errorf("Normalize refuses a loss-only config: %v", err)
	}
}
