package obs

import (
	"bufio"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	runtimepprof "runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// CLIOptions is the uniform observability surface of the cmd/ drivers:
// every driver exposes -metrics, -progress and -pprof and hands the parsed
// values here; figure1 additionally exposes -cpuprofile for make profile.
type CLIOptions struct {
	// Metrics is the path of the JSONL artifact: one event per line during
	// the run, then the final registry dump (counter/histogram lines).
	// Empty disables the file. The file is deterministic: same seed, same
	// bytes, for any parallelism.
	Metrics string
	// Progress enables progress lines on stderr, at most one a second.
	Progress bool
	// PprofAddr, when non-empty, serves net/http/pprof and expvar (the
	// registry appears under the "objalloc" var) on this address.
	PprofAddr string
	// CPUProfile, when non-empty, writes a CPU profile of the whole run
	// to this path (stopped and flushed by Close).
	CPUProfile string
	// Label prefixes progress lines, e.g. the command name.
	Label string
}

// CLI is a running observability setup. Close flushes and releases
// everything; it must run before process exit for the metrics file to
// contain the registry dump.
type CLI struct {
	obs      *Obs
	progress *Progress
	sink     *JSONLSink
	buf      *bufio.Writer
	file     *os.File
	cpuFile  *os.File
	srv      *http.Server
	closed   bool
}

// StartCLI builds the Obs bundle for a driver run. With every option off
// it returns a CLI whose Obs() is nil, so unobserved runs take the
// nil-*Obs fast path everywhere.
func StartCLI(opts CLIOptions) (*CLI, error) {
	c := &CLI{}
	if opts.Metrics == "" && !opts.Progress && opts.PprofAddr == "" && opts.CPUProfile == "" {
		return c, nil
	}
	o := &Obs{Registry: NewRegistry()}
	if opts.Metrics != "" {
		f, err := os.Create(opts.Metrics)
		if err != nil {
			return nil, fmt.Errorf("obs: metrics file: %w", err)
		}
		c.file = f
		c.buf = bufio.NewWriter(f)
		c.sink = NewJSONL(c.buf)
		o.Sink = c.sink
	}
	if opts.Progress {
		label := opts.Label
		if label == "" {
			label = "progress"
		}
		c.progress = NewProgress(os.Stderr, label, time.Second)
		o.Observer = c.progress
	}
	if opts.PprofAddr != "" {
		srv, err := servePprof(opts.PprofAddr, o.Registry)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.srv = srv
	}
	if opts.CPUProfile != "" {
		f, err := os.Create(opts.CPUProfile)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
		if err := runtimepprof.StartCPUProfile(f); err != nil {
			f.Close()
			c.Close()
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
		c.cpuFile = f
	}
	c.obs = o
	return c, nil
}

// Obs returns the bundle to thread into specs and cluster configs; nil
// when no observability was requested.
func (c *CLI) Obs() *Obs { return c.obs }

// Close prints the final progress line, appends the registry dump to the
// metrics file, stops the CPU profile, and shuts the pprof server down.
// Close is idempotent; only the first call does anything.
func (c *CLI) Close() error {
	if c == nil || c.closed {
		return nil
	}
	c.closed = true
	if c.progress != nil {
		c.progress.Finish()
	}
	if c.cpuFile != nil {
		runtimepprof.StopCPUProfile()
		c.cpuFile.Close()
		c.cpuFile = nil
	}
	if c.srv != nil {
		c.srv.Close()
		c.srv = nil
	}
	var err error
	if c.sink != nil {
		c.obs.Registry.Snapshot().Emit(c.sink)
		err = c.sink.Err()
	}
	if c.buf != nil {
		if ferr := c.buf.Flush(); err == nil {
			err = ferr
		}
	}
	if c.file != nil {
		if ferr := c.file.Close(); err == nil {
			err = ferr
		}
		c.file = nil
	}
	return err
}

// expvar registration is process-global and panics on duplicates, so the
// "objalloc" var is published once and reads whichever registry the most
// recent StartCLI installed.
var (
	expvarOnce sync.Once
	expvarReg  atomic.Pointer[Registry]
)

func publishExpvar(r *Registry) {
	expvarReg.Store(r)
	expvarOnce.Do(func() {
		expvar.Publish("objalloc", expvar.Func(func() any {
			return expvarReg.Load().Snapshot()
		}))
	})
}

// servePprof listens synchronously (so address errors surface to the
// caller) and serves pprof + expvar on a private mux, leaving the default
// mux untouched.
func servePprof(addr string, r *Registry) (*http.Server, error) {
	publishExpvar(r)
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: pprof listen: %w", err)
	}
	srv := &http.Server{Addr: addr, Handler: mux}
	go srv.Serve(ln)
	fmt.Fprintf(os.Stderr, "obs: pprof and expvar on http://%s/debug/\n", ln.Addr())
	return srv, nil
}
