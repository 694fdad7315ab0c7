package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// resultsFile is what an all-workloads invocation writes and -compare reads.
type resultsFile struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// environment records what the numbers were taken on.
type environment struct {
	Seed       int64   `json:"seed"` // of the first run; run i uses seed+i
	Runs       int     `json:"runs"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Commit     string  `json:"commit"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Kernel     string  `json:"kernel"`
	Time       string  `json:"time"`
}

type workloadResult struct {
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Correct   bool                     `json:"correct"`
	Metrics   map[string]*metricValues `json:"metrics"`
}

type metricValues struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"` // one per run
}

// add appends one run's values.
func (wr *workloadResult) add(m map[string]metric) {
	for name, v := range m {
		mv := wr.Metrics[name]
		if mv == nil {
			mv = &metricValues{Unit: v.Unit}
			wr.Metrics[name] = mv
		}
		mv.Values = append(mv.Values, v.Value)
	}
}

func currentEnvironment(cfg config, runs int) environment {
	env := environment{
		Seed: cfg.seed, Runs: runs, Seconds: cfg.seconds, Traced: cfg.trace,
		Commit: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: "unknown", Time: time.Now().UTC().Format(time.RFC3339),
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = cfg.root
	if out, err := cmd.Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	return env
}

// runAll runs every workload `runs` times, run i on seed+i, prints every
// metric by name and writes a results file for -compare.
func (b *bench) runAll(runs int) int {
	out := resultsFile{Env: currentEnvironment(b.cfg, runs), Workloads: map[string]*workloadResult{}}
	fmt.Printf("bench: nproc=%d GOMAXPROCS=%d %s kernel %s commit %s; %d run(s) of %.0f s per workload; server build %.1f s\n",
		out.Env.NProc, out.Env.GOMAXPROCS, out.Env.GoVersion, out.Env.Kernel, out.Env.Commit, runs, b.cfg.seconds, b.buildS)
	code := 0
	for run := 0; run < runs; run++ {
		for _, w := range workloads {
			m, res, err := b.measure(w, b.cfg.seed+int64(run))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			wr := out.Workloads[w.name]
			if wr == nil {
				wr = &workloadResult{Correct: true, Metrics: map[string]*metricValues{}}
				out.Workloads[w.name] = wr
			}
			fmt.Printf("-- %s, seed %d: %d operations, %d failed (failed_share %.6f)\n",
				w.name, b.cfg.seed+int64(run), res.attempted, res.failed, float64(res.failed)/float64(res.attempted))
			tails, correct := b.report(w, m, res)
			wr.Attempted += res.attempted
			wr.Failed += res.failed
			if !correct {
				wr.Correct = false
				code = 1
			}
			// The ungated figures are kept too, so -compare can show them;
			// they carry no bound and get no verdict.
			wr.add(m)
			wr.add(tails)
		}
	}
	kind := "results"
	if b.cfg.trace {
		kind = "layers"
	}
	path := filepath.Join(b.cfg.outDir, fmt.Sprintf("%s-%s.json", kind, time.Now().UTC().Format("20060102-150405")))
	data, err := json.MarshalIndent(out, "", " ")
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("bench: wrote %s\n", path)
	return code
}

// verdict compares one metric's runs on two commits. worsening is B's
// median against A's as a share of A's, signed so that positive is worse.
// "better" follows the rule for claiming a gain: the medians differ by more
// than A's own spread and B wins at least nine tenths of the pairs (run i of
// A against run i of B, which share a seed), ties counting for neither.
func verdict(a, b []float64, better string, bound float64) (worsening float64, v string) {
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	worsening = sign * (median(b) - median(a)) / math.Abs(median(a))
	if bound == 0 {
		return worsening, "-" // a per-layer diagnostic: no bound, no verdict
	}
	// With too few runs to take quartiles the spread is unknown and cannot
	// excuse anything.
	sa := 0.0
	if len(a) >= 4 {
		sa = spread(a)
	}
	wins, pairs := 0, 0
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			pairs++
		}
		if sign*(b[i]-a[i]) < 0 {
			wins++
		}
	}
	switch {
	case sa > bound:
		return worsening, "unresolved"
	case worsening > bound:
		return worsening, "worse"
	case worsening < -sa && pairs > 0 && float64(wins) >= 0.9*float64(pairs):
		return worsening, "better"
	default:
		return worsening, "within"
	}
}

// compareFiles prints one row per (metric, workload) present in both
// results files and returns the exit code: 1 if any verdict is "worse".
func compareFiles(w io.Writer, pathA, pathB string) int {
	load := func(p string) (*resultsFile, error) {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultsFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &rf, nil
	}
	a, err := load(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := load(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(w, "A: %s  commit %s, %d run(s) x %.0f s, seed %d, nproc %d, %s, kernel %s\n",
		pathA, a.Env.Commit, a.Env.Runs, a.Env.Seconds, a.Env.Seed, a.Env.NProc, a.Env.GoVersion, a.Env.Kernel)
	fmt.Fprintf(w, "B: %s  commit %s, %d run(s) x %.0f s, seed %d, nproc %d, %s, kernel %s\n",
		pathB, b.Env.Commit, b.Env.Runs, b.Env.Seconds, b.Env.Seed, b.Env.NProc, b.Env.GoVersion, b.Env.Kernel)
	specs := map[string]spec{}
	for _, s := range append(append([]spec(nil), endToEndSpecs...), perLayerSpecs...) {
		specs[s.Name] = s
	}
	fmt.Fprintf(w, "%-16s %-36s %14s %14s %9s %7s %9s  %s\n", "workload", "metric", "A median", "B median", "worsening", "bound", "A spread", "verdict")
	code := 0
	var names []string
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, wl := range names {
		wa, wb := a.Workloads[wl], b.Workloads[wl]
		if wb == nil {
			continue
		}
		var ms []string
		for m := range wa.Metrics {
			if wb.Metrics[m] != nil {
				ms = append(ms, m)
			}
		}
		sort.Strings(ms)
		for _, m := range ms {
			s, ok := specs[m]
			if !ok {
				continue
			}
			va, vb := wa.Metrics[m].Values, wb.Metrics[m].Values
			worsening, v := verdict(va, vb, s.Better, s.Bound)
			if v == "worse" {
				code = 1
			}
			sp := "n/a"
			if len(va) >= 4 {
				sp = fmt.Sprintf("%.1f%%", spread(va)*100)
			}
			fmt.Fprintf(w, "%-16s %-36s %14.4f %14.4f %+8.1f%% %6.0f%% %9s  %s\n",
				wl, m, median(va), median(vb), zeroNaN(worsening)*100, s.Bound*100, sp, v)
		}
		if !wa.Correct || !wb.Correct || wb.Failed > wa.Failed {
			fmt.Fprintf(w, "%-16s failed operations: A %d of %d, B %d of %d; correct: A %v, B %v\n",
				wl, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted, wa.Correct, wb.Correct)
			if !wb.Correct || wb.Failed > wa.Failed {
				code = 1
			}
		}
	}
	return code
}
