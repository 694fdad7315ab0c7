// Command benchjson runs the particle-filter hot-path micro-benchmarks (the
// coverage-index kernel's stages), the engine-level 1k-object step
// benchmarks, the query path's layer benchmarks (prune,
// snap, table build, warm preprocess), the ingest path's (delivery decode,
// reorder buffer, reader health, collector, durable router ingest) and the peer RPC's (codec
// and loopback round trips), and writes the parsed results as JSON,
// so speedups can be tracked across revisions without eyeballing
// `go test -bench` output.
//
// Usage:
//
//	benchjson                         # baseline: the highest BENCH_N.json in the cwd; writes BENCH_<N+1>.json
//	benchjson -dir /tmp/bench         # same baseline, report written under /tmp/bench (CI artifacts)
//	benchjson -out X.json -baseline Y.json   # explicit files override the discovery
//	benchjson -out '' -maxregress 0.20       # CI regression gate against the discovered baseline, writes nothing
//	benchjson -count 5 -against ../parent    # 5 runs each of this tree and the checkout at ../parent, alternating
//
// Each result is compared against the same benchmark in the baseline file:
// the per-benchmark speedup (baseline ns/op over current ns/op) is embedded
// as "speedups_vs_baseline", next to the baseline's own rows
// ("baseline_results"), so a report carries both sides of every ratio it
// states. With -maxregress P, the run exits non-zero if the indexed
// FilterStep, the 1k-object engine step, the one-shard sharded engine
// step, the 1000-object cold full-run sweep, the delivery decoder or the
// reader-health monitor is more than P (fraction) slower than the baseline —
// the loud CI failure mode for hot-path regressions.
//
// With -count N every benchmark runs N times; a result row carries the
// median ns/op, the N raw values and the GOMAXPROCS they ran at. With
// -against DIR the baseline is not a file but the checkout at DIR, measured
// on this host in turns with this tree — each benchmark set runs here, then
// there, N rounds — so host drift lands on both sides alike.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

// benchPattern selects the particle kernel's hot-path benchmarks, each with
// one "indexed" sub-benchmark.
const benchPattern = "BenchmarkFilterStep|BenchmarkNegativeUpdate|BenchmarkInitAt|BenchmarkReweight"

// enginePattern selects the engine-level population benchmarks: the
// single-engine 1k-object step (no sub-benchmark path), its sharded-router
// variant (shards=N sub-benchmarks showing scaling with the shard count), the
// 1000-object sweep of full filter runs a cold query pays and the one-second
// advance of 1000 cached states a warm query pays (both also report ns per
// particle-step), the tracing-overhead pair (enabled/disabled sub-benchmarks
// pinning the cost of the request tracer on the filter step), the query's
// evaluate stage on a warm cache — the first query of a stream second and a
// repeat in the same second, the memoized-snap path — and the durable
// sharded ingest.
const enginePattern = "BenchmarkEngineStep|BenchmarkColdRun1k|BenchmarkAdvance1s1k|BenchmarkFilterStepTraced|BenchmarkPreprocessWarm300|BenchmarkPreprocessRepeat300|BenchmarkShardedIngestDurable"

// The query path's, the ingest path's and the cluster's layer benchmarks
// outside the engine package.
const (
	queryPattern     = "BenchmarkPruneKNN1k|BenchmarkPruneRange1k"
	anchorPattern    = "BenchmarkSnapDistribution|BenchmarkTableBuild300"
	modelPattern     = "BenchmarkBatchDecode3500"
	ingestPattern    = "BenchmarkReorderOffer"
	healthPattern    = "BenchmarkObserveSecond"
	collectorPattern = "BenchmarkIngestSecond"
	clusterPattern   = "BenchmarkRPCRoundTrip"
)

// patterns lists every benchmark set with the package it runs in.
var patterns = [][2]string{
	{benchPattern, "./internal/particle/"},
	{enginePattern, "./internal/engine/"},
	{queryPattern, "./internal/query/"},
	{anchorPattern, "./internal/anchor/"},
	{modelPattern, "./internal/model/"},
	{ingestPattern, "./internal/ingest/"},
	{healthPattern, "./internal/health/"},
	{collectorPattern, "./internal/collector/"},
	{clusterPattern, "./internal/cluster/"},
}

// gates are the results -maxregress holds to the baseline: the filter hot
// path, the whole-engine step, the sharded router at one shard (the router
// must stay free when N=1), the cold full-run sweep, and the two serial
// stages of every ingest, the delivery decoder and the reader-health monitor.
var gates = []string{"FilterStep/indexed", "EngineStep1kObjects",
	"EngineStepSharded1kObjects/shards=1", "ColdRun1k",
	"BatchDecode3500/scanner", "ObserveSecond"}

// result is one parsed benchmark line.
type result struct {
	Name        string  `json:"name"`           // e.g. "FilterStep"
	Path        string  `json:"path,omitempty"` // the sub-benchmark ("indexed", "shards=4", "scanner", ...), "" when there is none
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	ObjsPerSec  float64 `json:"objs_per_sec,omitempty"`
	// NsPerParticleStep is the time per particle moved through one
	// simulated second, for the benchmarks that count them.
	NsPerParticleStep float64 `json:"ns_per_particle_step,omitempty"`
	// GoMaxProcs is the GOMAXPROCS the benchmark ran at (the -N suffix).
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	// Runs holds every run's ns/op when the benchmark ran more than once;
	// NsPerOp is then their median.
	Runs []float64 `json:"ns_per_op_runs,omitempty"`
}

// key identifies a result across runs for baseline comparison.
func (r result) key() string {
	if r.Path == "" {
		return r.Name
	}
	return r.Name + "/" + r.Path
}

// report is the file layout: the raw results and (when -baseline is given)
// the per-benchmark speedup over the baseline file.
type report struct {
	GoOS       string             `json:"goos,omitempty"`
	GoArch     string             `json:"goarch,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	Results    []result           `json:"results"`
	Baseline   string             `json:"baseline,omitempty"`
	VsBaseline map[string]float64 `json:"speedups_vs_baseline,omitempty"`
	// BaselineResults are the baseline's rows for the benchmarks compared.
	BaselineResults []result `json:"baseline_results,omitempty"`
}

// latestReport returns the highest N with a BENCH_N.json in the current
// directory (0 when there is none).
func latestReport() int {
	names, _ := filepath.Glob("BENCH_*.json")
	latest := 0
	for _, name := range names {
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "BENCH_"), ".json"))
		if err == nil && n > latest {
			latest = n
		}
	}
	return latest
}

func main() {
	const discover = "auto"
	out := flag.String("out", discover, "output file (default: BENCH_<N+1>.json after the highest BENCH_N.json here; empty: don't write)")
	dir := flag.String("dir", ".", "directory a discovered output file is written to")
	benchtime := flag.String("benchtime", "1s", "value passed to -benchtime")
	baseline := flag.String("baseline", discover, "previous benchjson report to compute speedups_vs_baseline against (default: the highest BENCH_N.json here; empty: none)")
	maxregress := flag.Float64("maxregress", 0, "fail if a gated benchmark (FilterStep, EngineStep, ColdRun1k, BatchDecode3500/scanner, ObserveSecond) regresses more than this fraction vs -baseline (0 disables)")
	count := flag.Int("count", 1, "runs of every benchmark; rows carry the median")
	against := flag.String("against", "", "checkout to measure the baseline from, in turns with this tree (overrides -baseline)")
	flag.Parse()
	latest := latestReport()
	if *out == discover {
		*out = filepath.Join(*dir, fmt.Sprintf("BENCH_%d.json", latest+1))
	}
	if *baseline == discover {
		*baseline = ""
		if latest > 0 {
			*baseline = fmt.Sprintf("BENCH_%d.json", latest)
		}
	}

	var rep, base report
	for i := 0; i < *count; i++ {
		for _, p := range patterns {
			runBench(&rep, "", p[0], p[1], *benchtime)
			if *against != "" {
				runBench(&base, *against, p[0], p[1], *benchtime)
			}
		}
	}
	rep.Results = medians(rep.Results)
	if len(rep.Results) == 0 {
		fatal(fmt.Errorf("no benchmark lines parsed"))
	}

	if *against != "" {
		base.Results = medians(base.Results)
		rep.Baseline = checkoutName(*against) + fmt.Sprintf(" (measured in turns with this tree, %d runs each)", *count)
	} else if *baseline != "" {
		var err error
		if base, err = loadReport(*baseline); err != nil {
			fatal(err)
		}
		rep.Baseline = filepath.Base(*baseline)
	}
	if rep.Baseline != "" {
		rep.VsBaseline = map[string]float64{}
		baseNs := map[string]float64{}
		current := map[string]bool{}
		for _, r := range rep.Results {
			current[r.key()] = true
		}
		for _, r := range base.Results {
			baseNs[r.key()] = r.NsPerOp
			if current[r.key()] {
				rep.BaselineResults = append(rep.BaselineResults, r)
			}
		}
		for _, r := range rep.Results {
			if b, ok := baseNs[r.key()]; ok && r.NsPerOp > 0 {
				rep.VsBaseline[r.key()] = b / r.NsPerOp
			}
		}
		// When the baseline predates the sharded benchmark, anchor the
		// one-shard router result to the plain engine step — same workload,
		// the router is the only difference.
		const single = "EngineStepSharded1kObjects/shards=1"
		if _, ok := rep.VsBaseline[single]; !ok {
			if b, ok := baseNs["EngineStep1kObjects"]; ok {
				for _, r := range rep.Results {
					if r.key() == single && r.NsPerOp > 0 {
						rep.VsBaseline[single] = b / r.NsPerOp
					}
				}
			}
		}
	}

	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatal(err)
		}
		data = append(data, '\n')
		if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d results)\n", *out, len(rep.Results))
	}
	for key, s := range rep.VsBaseline {
		fmt.Printf("  %-24s %.2fx vs %s\n", key, s, rep.Baseline)
	}

	if *maxregress > 0 {
		if rep.Baseline == "" {
			fatal(fmt.Errorf("-maxregress requires -baseline"))
		}
		for _, gate := range gates {
			s, ok := rep.VsBaseline[gate]
			if !ok {
				fatal(fmt.Errorf("-maxregress: %s missing from current run or baseline", gate))
			}
			// speedup < 1/(1+p) means the hot path got more than p slower.
			if s < 1/(1+*maxregress) {
				fatal(fmt.Errorf("REGRESSION: %s is %.0f%% slower than %s (speedup %.2fx, limit -%.0f%%)",
					gate, (1/s-1)*100, rep.Baseline, s, *maxregress*100))
			}
			fmt.Printf("bench-diff OK: %s at %.2fx of %s (within -%.0f%% budget)\n",
				gate, s, rep.Baseline, *maxregress*100)
		}
	}
}

// runBench executes `go test -bench pattern` for one package of the
// checkout at dir ("" for the current directory) and appends the parsed
// result lines to the report.
func runBench(rep *report, dir, pattern, pkg, benchtime string) {
	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", pattern, "-benchmem", "-benchtime", benchtime, pkg)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		fatal(err)
	}
	if err := cmd.Start(); err != nil {
		fatal(err)
	}
	sc := bufio.NewScanner(outPipe)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		default:
			if r, ok := parseLine(line); ok {
				rep.Results = append(rep.Results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		fatal(fmt.Errorf("go test -bench %s: %w", pkg, err))
	}
}

// medians folds the rows of repeated runs into one row per benchmark, in
// first-seen order: the median ns/op (the mean of the middle two for an
// even count) with every run's value kept in Runs, and the other fields of
// the run nearest the median. A benchmark that ran once keeps its row as is.
func medians(rows []result) []result {
	var order []string
	byKey := map[string][]result{}
	for _, r := range rows {
		if _, ok := byKey[r.key()]; !ok {
			order = append(order, r.key())
		}
		byKey[r.key()] = append(byKey[r.key()], r)
	}
	out := make([]result, 0, len(order))
	for _, k := range order {
		runs := byKey[k]
		if len(runs) == 1 {
			out = append(out, runs[0])
			continue
		}
		ns := make([]float64, len(runs))
		for i, r := range runs {
			ns[i] = r.NsPerOp
		}
		sorted := slices.Clone(ns)
		slices.Sort(sorted)
		mid := len(sorted) / 2
		med := sorted[mid]
		if len(sorted)%2 == 0 {
			med = (sorted[mid-1] + sorted[mid]) / 2
		}
		row := runs[0]
		for _, r := range runs[1:] {
			if math.Abs(r.NsPerOp-med) < math.Abs(row.NsPerOp-med) {
				row = r
			}
		}
		row.NsPerOp, row.Runs = med, ns
		out = append(out, row)
	}
	return out
}

// checkoutName names the checkout at dir by its commit, falling back to the
// directory name outside git.
func checkoutName(dir string) string {
	out, err := exec.Command("git", "-C", dir, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return filepath.Base(dir)
	}
	return strings.TrimSpace(string(out))
}

// loadReport reads a previously written benchjson file.
func loadReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, fmt.Errorf("baseline: %w", err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("baseline %s: %w", path, err)
	}
	return rep, nil
}

// parseLine parses a `go test -bench` result line of the form
//
//	BenchmarkName/sub-N   iters   123.4 ns/op   56 B/op   7 allocs/op
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	// Strip the trailing -N GOMAXPROCS suffix, then split name/path.
	full := fields[0]
	procs := 0
	if i := strings.LastIndex(full, "-"); i > 0 {
		procs, _ = strconv.Atoi(full[i+1:])
		full = full[:i]
	}
	name, path, _ := strings.Cut(strings.TrimPrefix(full, "Benchmark"), "/")
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: name, Path: path, Iterations: iters, GoMaxProcs: procs}
	for i := 2; i+1 < len(fields); i += 2 {
		v := fields[i]
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp, _ = strconv.ParseFloat(v, 64)
		case "B/op":
			r.BytesPerOp, _ = strconv.ParseInt(v, 10, 64)
		case "allocs/op":
			r.AllocsPerOp, _ = strconv.ParseInt(v, 10, 64)
		case "objs/s":
			r.ObjsPerSec, _ = strconv.ParseFloat(v, 64)
		case "ns/particle-step":
			r.NsPerParticleStep, _ = strconv.ParseFloat(v, 64)
		}
	}
	if r.NsPerOp == 0 {
		return result{}, false
	}
	return r, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
