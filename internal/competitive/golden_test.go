package competitive

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden regenerates testdata/golden from the code under test. The
// committed files were last written when the sweep began pricing each
// cell in whole units: every value is the correctly rounded exact ratio,
// which TestSweepIsExact checks independently of the sweep's machinery, so
// TestGoldenSweep pins those bits against later rewrites; regenerating
// re-anchors the pin to the current code.
var updateGolden = flag.Bool("update-golden", false, "rewrite internal/competitive/testdata/golden from the current code")

// goldenAxis is the benchmark's 6×6 figure-1 plane; goldenSeeds are the
// battery seeds its sweep_offline workload cycles through.
var goldenAxis = []float64{0.2, 0.5, 0.8, 1.1, 1.4, 1.7}

const goldenSeeds = 8

// renderGoldenSweep prints every point of the sweeps of one cost-model
// family over all golden seeds. Floats are printed with %b — the exact
// mantissa and exponent, "NaN" for a NaN — so equal text means equal bits.
func renderGoldenSweep(t *testing.T, mobile bool, parallelism int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for seed := int64(1); seed <= goldenSeeds; seed++ {
		points, err := Sweep(context.Background(), SweepSpec{
			CDs: goldenAxis, CCs: goldenAxis, Mobile: mobile,
			Battery: DefaultBattery(), Seed: seed, Parallelism: parallelism,
		})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "# seed %d\n", seed)
		for _, p := range points {
			fmt.Fprintf(&buf, "cc=%b cd=%b analytic=%v empirical=%v sa=%b da=%b\n",
				p.CC, p.CD, p.Analytic, p.Empirical, p.SAWorst, p.DAWorst)
		}
	}
	return buf.Bytes()
}

// TestGoldenSweep replays sweeps recorded by an earlier commit: at
// Parallelism 1 and at the default, every cell's ratios and regions must
// match the stored bits.
func TestGoldenSweep(t *testing.T) {
	cases := []struct {
		file   string
		render func(t *testing.T, parallelism int) []byte
	}{
		{"sweep_sc.txt", func(t *testing.T, p int) []byte { return renderGoldenSweep(t, false, p) }},
		{"sweep_mc.txt", func(t *testing.T, p int) []byte { return renderGoldenSweep(t, true, p) }},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			path := filepath.Join("testdata", "golden", c.file)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, c.render(t, 1), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, parallelism := range []int{1, 0} {
				if got := c.render(t, parallelism); !bytes.Equal(got, want) {
					t.Errorf("Parallelism %d diverges from %s:\ngot:\n%s\nwant:\n%s", parallelism, path, got, want)
				}
			}
		})
	}
}
