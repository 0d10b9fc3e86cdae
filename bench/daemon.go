package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// deviceModel is the modelled journal device: every journal write and
// every fsync sleeps a uniform (0, 2 ms] drawn deterministically from
// the op index — a fixed slow disk that never fails. See README.md.
const deviceModel = "stall=1,stallmax=2ms,seed=1"

// daemonDrainTimeout is objallocd's own -draintimeout default; the
// child is killed if it has not exited by then.
const daemonDrainTimeout = 30 * time.Second

// scratch owns every directory a run writes: dir is inside the checkout
// (the sandbox's real disk), tmp is on tmpfs when /dev/shm is writable.
// remove deletes both, and runs on every exit path.
type scratch struct {
	dir   string
	tmp   string
	tmpfs bool
}

// newScratch creates the run's directories under outDir.
func newScratch(outDir string) (*scratch, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return nil, err
	}
	s := &scratch{dir: dir, tmp: filepath.Join(dir, "tmp")}
	if shm, err := os.MkdirTemp("/dev/shm", "objalloc-bench-"); err == nil {
		s.tmp, s.tmpfs = shm, true
	} else if err := os.Mkdir(s.tmp, 0o755); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return s, nil
}

func (s *scratch) remove() {
	os.RemoveAll(s.tmp)
	os.RemoveAll(s.dir)
}

// buildDaemon compiles objallocd from the checkout's source.
func buildDaemon(dir string) (string, error) {
	bin := filepath.Join(dir, "objallocd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/objallocd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/objallocd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemonFlags are the exact objallocd flags of a run; journal is empty
// for a volatile daemon.
func daemonFlags(runDir, journal string) []string {
	flags := []string{
		"-shards", "2", "-n", "8", "-t", "3", "-engine", "da",
		"-addr", "127.0.0.1:0",
		"-addrfile", filepath.Join(runDir, "addr"),
		"-statsfile", filepath.Join(runDir, "stats.json"),
	}
	if journal != "" {
		flags = append(flags, "-journal", journal, "-disk-faults", deviceModel)
	}
	return flags
}

// daemon is a running objallocd child.
type daemon struct {
	cmd     *exec.Cmd
	exited  chan error
	base    string
	runDir  string
	journal string
	stderr  bytes.Buffer
	stopped bool
}

// startDaemon launches bin with its files under runDir and returns once /v1/healthz answers 200. The health
// probe, unlike a /v1/stats scrape, does not switch on the daemon's
// per-request latency clock.
func startDaemon(bin, runDir, journal string) (*daemon, error) {
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	d := &daemon{exited: make(chan error, 1), runDir: runDir, journal: journal}
	d.cmd = exec.Command(bin, daemonFlags(runDir, journal)...)
	d.cmd.Stderr = &d.stderr
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(runDir)
		return nil, err
	}
	go func() { d.exited <- d.cmd.Wait() }()

	probe := http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exited:
			d.stopped = true
			d.close()
			return nil, fmt.Errorf("objallocd exited before listening: %v\n%s", err, d.stderr.String())
		default:
		}
		if d.base == "" {
			if b, err := os.ReadFile(filepath.Join(runDir, "addr")); err == nil && len(b) > 0 {
				d.base = "http://" + strings.TrimSpace(string(b))
			}
		}
		if d.base != "" {
			if resp, err := probe.Get(d.base + "/v1/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.close()
	return nil, fmt.Errorf("objallocd not healthy within 10s\n%s", d.stderr.String())
}

// stop reaps the child — SIGTERM, then SIGKILL once grace has passed —
// and returns the final stats file the drain wrote. The directories
// stay until close, so the caller can still read the journal.
func (d *daemon) stop(grace time.Duration) ([]byte, error) {
	d.stopped = true
	if err := reap(d.cmd.Process, d.exited, grace); err != nil {
		return nil, fmt.Errorf("objallocd: %w\n%s", err, d.stderr.String())
	}
	return os.ReadFile(filepath.Join(d.runDir, "stats.json"))
}

// close makes sure the child is gone and removes its run and journal
// directories; deferred right after startDaemon, it covers every exit
// path, a failed run included.
func (d *daemon) close() {
	if !d.stopped {
		d.stop(0)
	}
	os.RemoveAll(d.runDir)
	if d.journal != "" {
		os.RemoveAll(d.journal)
	}
}

// reap asks a child to exit with SIGTERM, waits for its Wait result on
// exited, and kills it when grace runs out; it always returns with the
// child gone.
func reap(p *os.Process, exited <-chan error, grace time.Duration) error {
	p.Signal(syscall.SIGTERM)
	timer := time.NewTimer(grace)
	defer timer.Stop()
	select {
	case err := <-exited:
		return err
	case <-timer.C:
		p.Kill()
		<-exited
		return fmt.Errorf("still running %s after SIGTERM; killed", grace)
	}
}

// procStatusKB reads one "Key:\tvalue kB" line of /proc/<pid>/status.
func procStatusKB(pid int, key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, key)
}

// rssSummary is a process's resident set over a timed phase, in MiB:
// the median of samples taken every 200 ms, and the high-water mark
// (VmHWM). The peak of a garbage-collected heap is an extreme value —
// identical sweep_offline runs read 16 to 32 MiB — so the median is the
// metric and the peak a diagnostic.
type rssSummary struct{ median, peak float64 }

// watchRSS samples the process's VmRSS until stop is called.
func watchRSS(pid int) (stop func() (rssSummary, error)) {
	quit, done := make(chan struct{}), make(chan struct{})
	var samples []float64
	var firstErr error
	go func() {
		defer close(done)
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			kb, err := procStatusKB(pid, "VmRSS")
			if err != nil && firstErr == nil {
				firstErr = err
			}
			samples = append(samples, kb/1024)
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() (rssSummary, error) {
		close(quit)
		<-done
		peak, err := procStatusKB(pid, "VmHWM")
		if firstErr == nil {
			firstErr = err
		}
		return rssSummary{median(samples), peak / 1024}, firstErr
	}
}

// cpuSeconds is utime+stime of /proc/<pid>/stat, at the kernel's 10 ms
// tick — a diagnostic, never an end-to-end metric.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from after its closing parenthesis.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad utime/stime", pid)
	}
	const userHz = 100
	return (utime + stime) / userHz, nil
}
