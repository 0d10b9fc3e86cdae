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

// TestModelFlagParity pins the model flag set both tools share: 13
// names and defaults, registered by objallocd and journalcheck through
// Bind (a second declaration of one of them on the same flag set
// panics), and a bad -engine or -adaptive value refused in the words
// both used.
func TestModelFlagParity(t *testing.T) {
	want := map[string]string{
		"shards": "8", "engine": "da", "adaptive": "", "n": "8", "t": "3",
		"cc": "0.25", "cd": "1", "mobile": "false",
		"faults": "", "noretry": "false", "attempts": "0", "seed": "0",
		"disk-faults": "",
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

// TestConfigRejectsLinkFlaps: the service draws faults from per-object
// streams and has no links, so a plan with flap or flaplen would be an
// active fault run that injects nothing. Normalize refuses it, and with
// it New and everything -faults reaches through Config; the plan itself
// stays legal for cmd/chaos and domsim, which run real links.
func TestConfigRejectsLinkFlaps(t *testing.T) {
	refused := func(what string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "-faults") || !strings.Contains(err.Error(), "flap") {
			t.Errorf("%s: error %v, want a refusal naming -faults and flap", what, err)
		}
	}
	for _, plan := range []netsim.FaultPlan{{Flap: 0.5}, {FlapLen: 3}, {Loss: 0.1, Flap: 0.01, FlapLen: 3}} {
		cfg := server.Config{Faults: &plan}
		refused("Normalize", cfg.Normalize())
		_, err := server.New(server.Config{Faults: &plan})
		refused("New", err)
	}
	for _, arg := range []string{"-faults=flap=0.5,flaplen=3", "-faults=loss=0.1,FLAP=0.01"} {
		fs := flag.NewFlagSet("flaps", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		flags := Bind(fs)
		if err := fs.Parse([]string{arg}); err != nil {
			t.Fatal(err)
		}
		cfg, err := flags.Config()
		if err != nil {
			t.Fatalf("%s: Config refused a legal plan: %v", arg, err)
		}
		_, err = server.New(cfg)
		refused(arg, err)
	}
	ok := server.Config{Faults: &netsim.FaultPlan{Loss: 0.1, Dup: 0.1, Delay: 0.1, DelayMax: 3}}
	if err := ok.Normalize(); err != nil {
		t.Errorf("a plan without flaps is refused: %v", err)
	}
}
