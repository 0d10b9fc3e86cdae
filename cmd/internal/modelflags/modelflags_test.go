package modelflags

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"objalloc/internal/netsim"
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
// message fault the cost model prices. A plan that sets a duplication,
// delay or link-flap key is refused by Normalize, and with it by New and
// everything -faults reaches through Config, naming -faults and the key;
// the plan itself stays legal for cmd/chaos and domsim, which run real
// links.
func TestConfigRejectsLinkFlaps(t *testing.T) {
	refused := func(what, key string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "-faults") || !strings.Contains(err.Error(), key+"=") {
			t.Errorf("%s: error %v, want a refusal naming -faults and %s", what, err, key)
		}
	}
	for _, tc := range []struct {
		key  string
		plan netsim.FaultPlan
		arg  string
	}{
		{"flap", netsim.FaultPlan{Flap: 0.5}, "-faults=flap=0.5,flaplen=3"},
		{"flaplen", netsim.FaultPlan{FlapLen: 3}, "-faults=flaplen=3"},
		{"flap", netsim.FaultPlan{Loss: 0.1, Flap: 0.01, FlapLen: 3}, "-faults=loss=0.1,FLAP=0.01"},
		{"dup", netsim.FaultPlan{Loss: 0.1, Dup: 0.1}, "-faults=loss=0.1,dup=0.1"},
		{"delay", netsim.FaultPlan{Delay: 0.2, Seed: 3}, "-faults=delay=0.2,seed=3"},
		{"delaymax", netsim.FaultPlan{Loss: 0.1, DelayMax: 4}, "-faults=delaymax=4"},
	} {
		cfg := server.Config{Faults: &tc.plan}
		refused("Normalize", tc.key, cfg.Normalize())
		_, err := server.New(server.Config{Faults: &tc.plan})
		refused("New", tc.key, err)

		fs := flag.NewFlagSet("faults", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		flags := Bind(fs)
		if err := fs.Parse([]string{tc.arg}); err != nil {
			t.Fatal(err)
		}
		cfg, err = flags.Config()
		if err != nil {
			t.Fatalf("%s: Config refused a legal plan: %v", tc.arg, err)
		}
		_, err = server.New(cfg)
		refused(tc.arg, tc.key, err)
	}
	ok := server.Config{Faults: &netsim.FaultPlan{Loss: 0.1, Seed: 3}}
	if err := ok.Normalize(); err != nil {
		t.Errorf("a loss-only plan is refused: %v", err)
	}
}
