// Command perfbench is the repository's end-to-end benchmark. It builds
// a workload's gallery from the tree under test, saves it as a snapshot,
// boots the real snserve binary on it (-mmap), drives it open-loop at
// fixed rates, and checks every answer bit for bit against an
// in-process reference computed from the same snapshot. With --trace 1
// it instead reports the per-layer split from a traced serial replay.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	bash perfbench/run.sh --workload classify-sift --seed 1 --seconds 50 --trace 0
//
// The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The line before it is the run record (host, toolchain, source digest,
// seed, rates, and every phase's counts).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	os.Exit(run())
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	conns    int
	bin      string
	work     string
}

func run() int {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name (classify-sift, detect-scene)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: picks query order and scene content")
	fs.IntVar(&o.seconds, "seconds", 50, "measurement time budget in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer split from a traced run instead of the end-to-end metrics")
	fs.IntVar(&o.conns, "conns", runtime.NumCPU(), "generator connections (at most nproc)")
	fs.StringVar(&o.bin, "server", filepath.Join(".bench_build", "snserve"), "snserve binary")
	fs.StringVar(&o.work, "work", filepath.Join(".bench_build", "run"), "scratch directory for snapshots, logs and traces")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	o.trace = trace == 1
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := benchmark(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rec, err := json.Marshal(out.record)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := json.Marshal(out.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("%s\n%s\n", rec, res)
	return 0
}

func (o options) validate() error {
	if _, err := workloadByName(o.workload); err != nil {
		return err
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds %d: want at least 1", o.seconds)
	}
	if n := runtime.NumCPU(); o.conns < 1 || o.conns > n {
		return fmt.Errorf("--conns %d refused: the generator may use 1 to nproc (%d) connections", o.conns, n)
	}
	if _, err := os.Stat(o.bin); err != nil {
		return fmt.Errorf("server binary: %w (build it with perfbench/run.sh)", err)
	}
	return nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line of output.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the run's provenance and phase detail.
type record struct {
	Host   hostRecord           `json:"host"`
	Setup  []map[string]float64 `json:"setups"`
	Phases []summary            `json:"phases"`
	Pooled map[string]float64   `json:"pooled,omitempty"`
	Search string               `json:"max_rps_censored,omitempty"`
	Note   string               `json:"first_failure,omitempty"`
	Trace  string               `json:"trace_file,omitempty"`
}

type output struct {
	record record
	result runResult
}

// A run sets the server up for at least setupTime in all, and at least
// once before every load round: the set-ups are spread over the run, so
// their median (setup_s, over the quiet ones) sees the host as the load
// phases do, not only as it was in the run's first seconds. Cheap
// set-ups are repeated more (a detect-scene set-up takes about 15 ms, so
// it runs over a hundred times), which steadies their median.
const setupTime = 2 * time.Second

func benchmark(ctx context.Context, o options) (output, error) {
	w, _ := workloadByName(o.workload)
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	var out output
	out.record.Host = newHostRecord(w, o.seed, o.seconds, o.trace, o.conns, procs)

	dir := filepath.Join(o.work, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)

	pool, err := w.inputs(o.seed)
	if err != nil {
		return out, err
	}
	evalPool, err := w.eval(pool)
	if err != nil {
		return out, err
	}

	// The first set-up's server stays up for the run. The others set up
	// a server of their own on another file and stop it.
	snapPath := filepath.Join(dir, "gallery.snap")
	var sts []setupTimes
	runtime.GC()
	steal0, total0 := cpuTicks()
	srv, st, err := setUp(ctx, w, o.bin, snapPath, filepath.Join(dir, "snserve.log"), procs)
	if err != nil {
		return out, err
	}
	defer srv.stop()
	st.steal = stealPct(steal0, total0)
	sts = append(sts, st)
	// setUps repeats the set-up until d has passed, at least once.
	setUps := func(ctx context.Context, d time.Duration) error {
		n := len(sts)
		steal0, total0 := cpuTicks()
		for t := time.Now(); time.Since(t) < d || len(sts) == n; {
			runtime.GC()
			s, st, err := setUp(ctx, w, o.bin, filepath.Join(dir, "setup.snap"), filepath.Join(dir, "setup.log"), procs)
			if err != nil {
				return err
			}
			s.stop()
			sts = append(sts, st)
		}
		for i := n; i < len(sts); i++ {
			sts[i].steal = stealPct(steal0, total0)
		}
		return nil
	}

	h, err := newHarness(ctx, w, snapPath, srv, pool, evalPool, o.conns)
	if err != nil {
		return out, err
	}
	defer h.close()
	h.setUps = func(ctx context.Context) error {
		err := setUps(ctx, setupTime/rounds)
		runtime.GC() // the set-up's garbage is not collected during a phase
		return err
	}
	if err := h.evaluate(ctx); err != nil {
		return out, err
	}

	budget := time.Duration(o.seconds) * time.Second
	var m map[string]float64
	if o.trace {
		m, err = h.traced(ctx, budget)
		if err == nil {
			tracePath := filepath.Join(o.work, fmt.Sprintf("trace-%s-%d.json", w.name, o.seed))
			if werr := h.rec.write(tracePath); werr != nil {
				return out, werr
			}
			out.record.Trace = tracePath
			addSetupLayers(m, quietSetups(sts))
		}
	} else {
		m, err = h.timed(ctx, budget)
		if err == nil {
			m["setup_s"] = median(pick(quietSetups(sts), func(s setupTimes) float64 { return s.total.Seconds() }))
		}
	}
	if err != nil {
		return out, err
	}
	if ctx.Err() != nil {
		return out, errors.New("interrupted")
	}
	for _, st := range sts {
		out.record.Setup = append(out.record.Setup, map[string]float64{
			"setup_s": st.total.Seconds(), "gallery_s": st.gallery.Seconds(), "index_ms": ms(st.index),
			"save_ms": ms(st.save), "boot_ms": ms(st.boot), "bytes": float64(st.bytes), "steal_pct": st.steal,
		})
	}

	out.record.Phases = h.summaries
	out.record.Pooled = h.pooled
	out.record.Search = h.censored
	for _, t := range []*target{h.evalTgt, h.tgt} {
		if t.firstBad != nil {
			out.record.Note = t.firstBad.Error()
			break
		}
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	metrics, err := report(m, defs)
	if err != nil {
		return out, err
	}
	out.result = runResult{Correct: h.failed == 0, Attempted: h.attempted, Failed: h.failed, Metrics: metrics}
	return out, nil
}

func pick(sts []setupTimes, f func(setupTimes) float64) []float64 {
	out := make([]float64, len(sts))
	for i, s := range sts {
		out[i] = f(s)
	}
	return out
}

// quietSetups returns the set-ups made while the machine's CPU steal
// was low (see quiet).
func quietSetups(sts []setupTimes) []setupTimes {
	return quiet(sts, func(s setupTimes) float64 { return s.steal })
}

// addSetupLayers adds the set-up split (medians over the given set-ups).
func addSetupLayers(m map[string]float64, sts []setupTimes) {
	m["pipeline.gallery_s"] = median(pick(sts, func(s setupTimes) float64 { return s.gallery.Seconds() }))
	m["pipeline.index_ms"] = median(pick(sts, func(s setupTimes) float64 { return ms(s.index) }))
	m["snapshot.save_ms"] = median(pick(sts, func(s setupTimes) float64 { return ms(s.save) }))
	m["snapshot.bytes"] = median(pick(sts, func(s setupTimes) float64 { return float64(s.bytes) }))
	m["serve.boot_ms"] = median(pick(sts, func(s setupTimes) float64 { return ms(s.boot) }))
}
