// Command benchmark is the repository's end-to-end benchmark. It drives the
// public repro API on four workloads, checks every output against its own
// model, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics and the tracing overhead) as one JSON object on the
// last line of standard output.
//
//	benchmark -workload set-uniform -seed 1 -seconds 15 -trace 0
//
// It runs from the repository root and writes only under .bench_build/
// there: the durable workload's store, the traces and the result files.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// outDir is where the benchmark writes, relative to the repository root.
const outDir = ".bench_build"

var workloadNames = []string{"set-uniform", "ingest-durable", "ingest-skewed", "graph-stream"}

// params is one run's configuration.
type params struct {
	workload string
	seed     uint64
	seconds  float64
	sz       sizes
	dir      string // scratch directory for on-disk state
	// corrupt perturbs the model's expected state so that the correctness
	// gates must fail; tests use it to prove the gates can fail.
	corrupt bool
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 15, "measured seconds per pass")
		trace   = flag.Int("trace", 0, "1 runs an untraced and a traced pass and prints the per-layer metrics")
	)
	flag.Parse()
	if !slices.Contains(workloadNames, *wl) {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *wl)
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	p := params{workload: *wl, seed: *seed, seconds: *seconds, sz: fullSizes}
	os.Exit(benchmark(p, *trace == 1, os.Stdout))
}

// benchmark runs one workload and prints its report; it returns the exit
// code: 0 when every correctness gate passed, 1 otherwise.
func benchmark(p params, traced bool, stdout io.Writer) int {
	runDir := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	p.dir = runDir
	defer os.RemoveAll(runDir)

	var res, base *result
	if traced {
		// The untraced pass is the baseline for the tracing overhead.
		base = runWorkload(p, nil)
		if !base.verified() {
			res = base
		} else {
			res = runWorkload(p, newTracer())
		}
	} else {
		res = runWorkload(p, nil)
	}

	env := envelope(p, res, traced)
	final := finalLine(res, base, traced)
	if traced && res.tr != nil {
		path := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.json", p.workload, p.seed))
		if err := res.tr.write(path, res.tr.selfTime()); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing trace:", err)
		} else {
			env["trace_file"] = path
		}
	}
	saveResult(p, traced, env)

	w := bufio.NewWriter(stdout)
	printTable(w, res, traced)
	eb, _ := json.Marshal(map[string]any{"envelope": env})
	fmt.Fprintln(w, string(eb))
	fb, _ := json.Marshal(final)
	fmt.Fprintln(w, string(fb))
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: writing report:", err)
		return 1
	}
	if !res.verified() {
		for _, g := range res.gates {
			if !g.OK {
				fmt.Fprintf(os.Stderr, "benchmark: gate %s failed: %s\n", g.Name, g.Detail)
			}
		}
		return 1
	}
	return 0
}

// finalLine builds the last stdout line: the end-to-end metrics untraced,
// or the per-layer metrics plus the tracing overhead of each end-to-end
// metric (traced pass relative to the untraced baseline).
func finalLine(res, base *result, traced bool) map[string]any {
	metrics := map[string]any{}
	if !traced {
		for _, m := range e2eMetrics {
			metrics[m.name] = map[string]any{"value": res.e2e[m.name].Value, "unit": m.unit}
		}
	} else {
		for _, m := range layerMetrics {
			metrics[m.name] = map[string]any{"value": res.layer[m.name].Value, "unit": m.unit}
		}
		for _, m := range e2eMetrics {
			metrics["overhead."+m.name] = map[string]any{"value": overhead(m, base.e2e[m.name].Value, res.e2e[m.name].Value), "unit": "share"}
		}
	}
	return map[string]any{
		"correct":   res.verified(),
		"attempted": res.attempted.Load(),
		"failed":    res.failed.Load(),
		"metrics":   metrics,
	}
}

// overhead is how much worse the traced pass made a metric, as a share of
// the untraced value: positive when tracing slowed it down.
func overhead(m metricDef, untraced, traced float64) float64 {
	if m.higher {
		return ratio(untraced, traced) - 1
	}
	return ratio(traced, untraced) - 1
}

func printTable(w io.Writer, res *result, traced bool) {
	show := func(name, unit string, m metric) {
		n := ""
		if m.Dist != nil {
			n = fmt.Sprintf("n=%d", m.Dist.N)
			if m.Dist.TailQ > 0 {
				n += fmt.Sprintf(" p%g=%.6g", 100*m.Dist.TailQ, m.Dist.Tail)
			}
		}
		fmt.Fprintf(w, "%-28s %14.6g %-8s %s\n", name, m.Value, unit, n)
	}
	fmt.Fprintf(w, "# %s seed=%d verified=%v attempted=%d failed=%d\n",
		res.p.workload, res.p.seed, res.verified(), res.attempted.Load(), res.failed.Load())
	for _, m := range e2eMetrics {
		show(m.name, m.unit, res.e2e[m.name])
	}
	if traced {
		for _, m := range layerMetrics {
			show(m.name, m.unit, res.layer[m.name])
		}
	}
}

// envelope describes the run: machine, code, inputs, policy, verdicts and
// the sample count behind every reported timing.
func envelope(p params, res *result, traced bool) map[string]any {
	return map[string]any{
		"workload":        p.workload,
		"seed":            p.seed,
		"seconds":         p.seconds,
		"traced":          traced,
		"commit":          commit(),
		"source_sha256":   sourceHash("."),
		"go":              runtime.Version(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"nproc":           runtime.NumCPU(),
		"cpu":             cpuModel(),
		"sizes":           res.info,
		"verified":        res.verified(),
		"gates":           res.gates,
		"attempted":       res.attempted.Load(),
		"failed":          res.failed.Load(),
		"failed_op_share": res.failedShare(),
		"percentile_rule": fmt.Sprintf("median plus the highest of p90/p99/p99.9/p99.99 with >= %d samples beyond it", minBeyond),
		"end_to_end":      res.e2e,
		"per_layer":       res.layer,
	}
}

func saveResult(p params, traced bool, env map[string]any) {
	dir := filepath.Join(outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: saving result:", err)
		return
	}
	b, err := json.MarshalIndent(env, "", " ")
	if err == nil {
		t := 0
		if traced {
			t = 1
		}
		err = os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", p.workload, p.seed, t)), b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: saving result:", err)
	}
}

// commit returns the VCS revision stamped into the binary, if any; a
// checkout without git history has none, and source_sha256 identifies the
// code instead.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceHash hashes the program's Go sources and go.mod under root,
// skipping the benchmark's own output.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == outDir || (path != root && strings.HasPrefix(d.Name(), "."))) {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return ""
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
