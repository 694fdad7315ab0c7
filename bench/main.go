// Command bench is the repository's benchmark: a load harness that builds
// cmd/server once, launches fresh server processes per workload on free
// loopback ports, drives them over HTTP, checks every answer, and prints
// each metric by name with its unit. See README.md in this directory.
//
//	bash bench/run.sh --workload query_hot --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh                      # all workloads, writes bench/out/results-*.json
//	bash bench/run.sh -trace 1             # all workloads, per-layer numbers and trace files
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n is the sample count behind a percentile or mean, for the report.
	n int
}

// result is the last line of standard output of a single-workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	root     string
	buildDir string
	outDir   string
	seconds  float64
	seed     int64
	trace    bool
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print its result as one JSON line (default: all)")
		seed         = flag.Int64("seed", 1, "workload seed: simulator, query positions and the server's -seed")
		seconds      = flag.Float64("seconds", runSeconds, "length of the measured section")
		trace        = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics and writes out/trace-<workload>.json")
		runs         = flag.Int("runs", 1, "all-workloads mode: runs per workload, each on the next seed")
		compare      = flag.Bool("compare", false, "compare two results files: bench -compare a.json b.json")
		printSpec    = flag.Bool("print-spec", false, "print BENCHMARK.json as the harness's metric and workload lists define it")
	)
	flag.Parse()
	if *printSpec {
		data, err := json.MarshalIndent(benchmarkJSON(), "", "  ")
		if err != nil {
			fatal(1, "bench: %v", err)
		}
		fmt.Println(string(data))
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}

	cfg := config{root: findRoot(), seconds: *seconds, seed: *seed, trace: *trace != 0}
	if cfg.root == "" {
		fatal(2, "bench: run from the repository root or from bench/ (no cmd/server here)")
	}
	// The server binary and every data directory go where run.sh keeps the
	// Go caches.
	cfg.buildDir = filepath.Join(cfg.root, ".bench_build")
	cfg.outDir = filepath.Join(cfg.root, "bench", "out")
	for _, d := range []string{cfg.buildDir, cfg.outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			fatal(1, "bench: %v", err)
		}
	}
	// Load uses at most nproc threads: one per connection of load, the
	// generator sharing with whichever is idle.
	runtime.GOMAXPROCS(runtime.NumCPU())
	// The harness allocates a batch body per stream second; collecting less
	// often keeps its collector off the cores the server is being timed on.
	debug.SetGCPercent(400)

	bin, buildTime, err := buildServer(cfg.root, cfg.buildDir)
	if err != nil {
		fatal(1, "bench: %v", err)
	}
	workDir, err := os.MkdirTemp(cfg.buildDir, "run-")
	if err != nil {
		fatal(1, "bench: %v", err)
	}
	l := newProcLauncher(bin, cfg.outDir)
	cleanup := func() {
		l.killAll()
		os.RemoveAll(workDir)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup()
		os.Exit(130)
	}()
	b := &bench{cfg: cfg, l: l, workDir: workDir, buildS: buildTime.Seconds()}

	code := 0
	if *workloadName != "" {
		code = b.runOne(*workloadName)
	} else {
		code = b.runAll(*runs)
	}
	cleanup()
	os.Exit(code)
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

// findRoot looks for the repository root at the working directory and the
// one above it (the harness's own directory sits directly under the root).
func findRoot() string {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "server", "main.go")); err != nil {
			continue
		}
		if abs, err := filepath.Abs(dir); err == nil {
			return abs
		}
	}
	return ""
}

type bench struct {
	cfg     config
	l       launcher
	workDir string
	buildS  float64
}

var errInvalidRun = errors.New("invalid run")

// measure runs one workload once, re-running it a single time if the first
// attempt was invalid (server shed or degraded, generator late): an invalid
// run reports no number rather than a wrong one.
func (b *bench) measure(w workload, seed int64) (map[string]metric, *liveResult, error) {
	for attempt := 0; ; attempt++ {
		var m map[string]metric
		var res *liveResult
		var err error
		if b.cfg.trace {
			m, res, err = b.traced(w, seed)
		} else {
			res, err = runLive(b.l, w, seed, liveOpts{
				seconds: b.cfg.seconds, setups: 9, restarts: 1, workDir: b.workDir,
			})
			if err == nil {
				m = res.endToEnd()
			}
		}
		if err != nil {
			return nil, nil, err
		}
		if res.invalid == "" {
			return m, res, nil
		}
		fmt.Fprintf(os.Stderr, "bench: %s: invalid run: %s\n", w.name, res.invalid)
		if attempt == 1 {
			return nil, nil, fmt.Errorf("%s: %w twice: %s", w.name, errInvalidRun, res.invalid)
		}
	}
}

// report prints one run's metrics by name, checks them against the declared
// specs and lists on standard error what failed. It returns the ungated
// wall-clock figures it printed (nil on a traced run, whose metrics include
// them) and whether the run was correct.
func (b *bench) report(w workload, m map[string]metric, res *liveResult) (tails map[string]metric, correct bool) {
	printMetrics(os.Stdout, w.name, m)
	specs := perLayerSpecs
	if !b.cfg.trace {
		specs = endToEndSpecs
		tails = res.tails()
		printMetrics(os.Stdout, w.name+" (ungated)", tails)
	}
	res.incorrect = append(res.incorrect, checkAgainstSpecs(m, specs)...)
	for _, f := range res.failures {
		fmt.Fprintf(os.Stderr, "bench: %s: failed operation: %s\n", w.name, f)
	}
	for _, f := range res.incorrect {
		fmt.Fprintf(os.Stderr, "bench: %s: incorrect: %s\n", w.name, f)
	}
	return tails, res.failed == 0 && len(res.incorrect) == 0
}

// runOne is the driver's entry: one workload, human-readable metric lines,
// then the result as the last line of standard output.
func (b *bench) runOne(name string) int {
	w, err := workloadByName(name)
	if err != nil {
		fatal(2, "bench: %v", err)
	}
	m, res, err := b.measure(w, b.cfg.seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	_, correct := b.report(w, m, res)
	out := result{Correct: correct, Attempted: res.attempted, Failed: res.failed, Metrics: m}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
