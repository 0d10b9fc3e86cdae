package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"syscall"
	"time"

	"objalloc/internal/stats"
)

// manifest is the part of BENCHMARK.json the repeatability gate reads.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(path string) (manifest, error) {
	var m manifest
	raw, err := os.ReadFile(path)
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(raw, &m)
}

// lastLine parses the final line of a run's output as its result.
func lastLine(out []byte) (result, error) {
	var res result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	err := json.Unmarshal(lines[len(lines)-1], &res)
	return res, err
}

// runRepeat is the repeatability gate, shaped like the acceptance
// driver's own check: two sets of n untraced runs per workload, every
// run a fresh process with its own seed, the sets' passes alternating
// (A, B, A, B, …) so slow drift of the box hits both alike. For each
// workload/metric it prints both medians, their gap and each set's
// interquartile spread, and fails if a gap or a spread (set-up time's
// excepted, as in the driver) exceeds the metric's bound.
func runRepeat(ctx context.Context, out io.Writer, names []string, n int, seed int64, seconds float64) error {
	mf, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// values["workload/metric"][set] are the n readings.
	values := make(map[string]*[2][]float64)
	header := []string{"finished at", "set", "seed", "workload"}
	for _, m := range mf.EndToEnd {
		header = append(header, m.Name)
	}
	runs := stats.NewTable(header...) // one row per run made, in the order made
	start := time.Now()
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range names {
				runSeed := seed + int64(set*n+i)
				cmd := exec.CommandContext(ctx, exe, "-workload", w, "-seed", fmt.Sprint(runSeed), "-seconds", fmt.Sprint(seconds), "-trace", "0")
				cmd.Stderr = os.Stderr
				cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
				cmd.WaitDelay = daemonDrainTimeout
				raw, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w, runSeed, err)
				}
				res, err := lastLine(raw)
				if err != nil {
					return fmt.Errorf("%s seed %d: result line: %w", w, runSeed, err)
				}
				if !res.Correct || res.Failed > 0 {
					return fmt.Errorf("%s seed %d: %d of %d ops failed:\n%s", w, runSeed, res.Failed, res.Attempted, raw)
				}
				row := []any{time.Since(start).Round(time.Second), string(rune('A' + set)), runSeed, w}
				for _, m := range mf.EndToEnd {
					v, ok := res.Metrics[m.Name]
					if !ok {
						return fmt.Errorf("%s seed %d: no metric %s", w, runSeed, m.Name)
					}
					key := w + "/" + m.Name
					if values[key] == nil {
						values[key] = new([2][]float64)
					}
					values[key][set] = append(values[key][set], v.Value)
					row = append(row, fmt.Sprintf("%.4f", v.Value))
				}
				runs.AddRow(row...)
			}
		}
	}

	fmt.Fprintf(out, "Two sets of %d runs per workload, %gs timed each, seeds %d–%d (A) and %d–%d (B), passes alternating A,B; %s in all.\n\n",
		n, seconds, seed, seed+int64(n)-1, seed+int64(n), seed+int64(2*n)-1, time.Since(start).Round(time.Second))
	gate := stats.NewTable("workload/metric", "unit", "median A", "median B", "B worse by", "IQR/median A", "IQR/median B", "bound", "verdict")
	pct := func(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }
	failures := 0
	for _, w := range names {
		for _, m := range mf.EndToEnd {
			key := w + "/" + m.Name
			a, b := values[key][0], values[key][1]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			switch {
			case math.Abs(worse) > m.Bound:
				verdict = "FAIL: sets disagree"
			case m.Name != "setup_s" && max(sa, sb) > m.Bound:
				verdict = "FAIL: spread over bound"
			case m.Name != "setup_s" && max(sa, sb) > m.Bound/3:
				verdict = "ok (spread over bound/3)"
			}
			if verdict[:2] != "ok" {
				failures++
			}
			gate.AddRow(key, m.Unit, fmt.Sprintf("%.4f", ma), fmt.Sprintf("%.4f", mb),
				fmt.Sprintf("%+.2f%%", 100*worse), pct(sa), pct(sb), pct(m.Bound), verdict)
		}
	}
	fmt.Fprint(out, gate.Markdown())
	fmt.Fprintf(out, "\nEvery run made:\n\n%s", runs.Markdown())
	if failures > 0 {
		return fmt.Errorf("%d workload/metric pairs outside their bound", failures)
	}
	return nil
}
