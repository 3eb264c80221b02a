package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"repro"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {99, 0}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	var d dist
	for i := 100; i >= 1; i-- {
		d = append(d, float64(i))
	}
	s := d.summary()
	if s.N != 100 || s.P50 != 50 || s.TailQ != 0.9 || s.Tail != 90 {
		t.Errorf("summary of 1..100 = %+v, want n=100 p50=50 p90=90", s)
	}
	if got := d.q(1); got != 100 {
		t.Errorf("q(1) = %v, want the maximum", got)
	}
	if s := (dist{7}).summary(); s.N != 1 || s.P50 != 7 || s.TailQ != 0 {
		t.Errorf("one sample: %+v, want p50=7 and no tail", s)
	}
	if got := (dist{}).q(0.5); got != 0 {
		t.Errorf("empty q = %v", got)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, b, c := newKeySeq(1), newKeySeq(1), newKeySeq(2)
	ka, kb, kc := a.keys(0, 5000), b.keys(0, 5000), c.keys(0, 5000)
	if !slices.Equal(ka, kb) {
		t.Fatal("same seed gave different keys")
	}
	if slices.Equal(ka, kc) {
		t.Fatal("different seeds gave the same keys")
	}
	sorted := slices.Clone(ka)
	radixSort(sorted)
	if !slices.IsSorted(sorted) || len(slices.Compact(sorted)) != len(ka) {
		t.Fatal("keySeq keys are not distinct")
	}
	for _, k := range ka {
		if k == 0 || k > 1<<keyBits {
			t.Fatalf("key %d outside [1, 2^40]", k)
		}
	}

	draw := func(seed uint64) []uint64 {
		p := newPowerLaw(newRNG(seed), 2.5, skewBits)
		out := make([]uint64, 1000)
		for i := range out {
			out[i] = p.next()
		}
		return out
	}
	if !slices.Equal(draw(3), draw(3)) || slices.Equal(draw(3), draw(4)) {
		t.Fatal("power law is not a function of its seed")
	}

	edges := func(seed uint64) []repro.Edge {
		m := newGraphModel(seed, 10)
		ins, _, added := m.insertBatch(2000)
		return append(ins, m.deleteBatch(added/2)...)
	}
	e1, e2, e3 := edges(5), edges(5), edges(6)
	if !slices.Equal(e1, e2) || slices.Equal(e1, e3) {
		t.Fatal("graph stream is not a function of its seed")
	}
	for i := 0; i < len(e1); i += 2 {
		if e1[i].Src == e1[i].Dst || e1[i+1] != (repro.Edge{Src: e1[i].Dst, Dst: e1[i].Src}) {
			t.Fatalf("batch edge %d: %v %v is not a symmetric pair without self-loop", i, e1[i], e1[i+1])
		}
	}
	m := newGraphModel(5, 10)
	m.insertBatch(2000)
	if !symmetric(m.keys()) {
		t.Fatal("graph model is not symmetric")
	}
}

func TestRadixSort(t *testing.T) {
	rg := newRNG(9)
	a := make([]uint64, 10000)
	for i := range a {
		a[i] = rg.next() >> 16
	}
	want := slices.Clone(a)
	slices.Sort(want)
	radixSort(a)
	if !slices.Equal(a, want) {
		t.Fatal("radixSort disagrees with slices.Sort")
	}
}

func failedGates(r *result) []string {
	var out []string
	for _, g := range r.gates {
		if !g.OK {
			out = append(out, g.Name)
		}
	}
	return out
}

// TestGatesFailOnCorruptModel feeds each gate a correct structure and a
// corrupted expected state.
func TestGatesFailOnCorruptModel(t *testing.T) {
	seq := newKeySeq(1)
	keys := seq.keys(0, 20000)
	radixSort(keys)
	set := repro.SetFromSorted(keys, nil)
	bad := corruptKeys(slices.Clone(keys), seq)
	slices.Sort(bad)
	length := rangeLen(smokeSizes)

	r := newResult(params{}, nil)
	checkKeys(r, "keys", set.Keys(), keys)
	checkRanges(r, "ranges", set.RangeSum, keys, newRNG(2), length, 50)
	checkLookups(r, "lookups", set.Has, keys, newRNG(3), 50)
	if !r.verified() {
		t.Fatalf("gates failed on the true model: %v", failedGates(r))
	}

	r = newResult(params{}, nil)
	checkKeys(r, "keys", set.Keys(), bad)
	checkRanges(r, "ranges", set.RangeSum, bad, newRNG(2), length, 50)
	checkLookups(r, "lookups", set.Has, bad, newRNG(3), 50)
	if got := failedGates(r); !slices.Equal(got, []string{"keys", "ranges", "lookups"}) {
		t.Fatalf("failed gates %v, want keys, ranges and lookups", got)
	}
	if r.verified() || r.failed.Load() != 3 {
		t.Fatalf("verified=%v failed=%d after three failed gates", r.verified(), r.failed.Load())
	}

	m := newGraphModel(1, 10)
	m.insertBatch(3000)
	ek := m.keys()
	g := repro.NewShardedFGraph(1<<10, 4, nil)
	defer g.Close()
	if err := g.InsertEdgeKeys(ek, true); err != nil {
		t.Fatal(err)
	}
	g.Flush()
	v := g.View()
	r = newResult(params{}, nil)
	checkKernels(r, "k", v, ek, 10)
	checkEdgeLookups(r, v.Snapshot().Has, ek, newRNG(4), 1<<10, 50)
	if !r.verified() {
		t.Fatalf("graph gates failed on the true model: %v", failedGates(r))
	}

	// An absent edge (0, v) in one direction: the model is asymmetric, BFS
	// from 0 reaches v at depth 1 in the reference only, and the
	// reference's PageRank moves.
	badEdges := corruptEdges(ek, 1<<10)
	r = newResult(params{}, nil)
	checkKernels(r, "k", v, badEdges, 10)
	// Half the lookups come from the model: make every one of them absent.
	var absent []uint64
	for _, k := range ek {
		absent = append(absent, k+1<<20)
	}
	slices.Sort(absent)
	checkEdgeLookups(r, v.Snapshot().Has, absent, newRNG(4), 1<<10, 50)
	for _, want := range []string{"k-symmetric", "k-bfs", "k-pagerank", "lookups"} {
		if got := failedGates(r); !slices.Contains(got, want) {
			t.Fatalf("failed gates %v, want %s among them", got, want)
		}
	}

	// Isolating vertex 0 in the reference relabels the rest of its
	// component.
	var cut []uint64
	for _, k := range ek {
		if k>>32 != 0 && uint32(k) != 0 {
			cut = append(cut, k)
		}
	}
	r = newResult(params{}, nil)
	checkKernels(r, "k", v, cut, 10)
	if got := failedGates(r); !slices.Contains(got, "k-cc") {
		t.Fatalf("failed gates %v, want k-cc among them", got)
	}
}

// smoke runs one workload at the smoke scale and returns its final JSON
// line, exit code and stdout.
func smoke(t *testing.T, workload string, traced, corrupt bool) (map[string]any, int, string) {
	t.Helper()
	var out bytes.Buffer
	p := params{workload: workload, seed: 7, seconds: 0.5, sz: smokeSizes, corrupt: corrupt}
	code := benchmark(p, traced, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var final map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", workload, err)
	}
	return final, code, out.String()
}

func TestSmokeAllWorkloads(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, w := range workloadNames {
		final, code, out := smoke(t, w, false, false)
		if code != 0 || final["correct"] != true || final["failed"].(float64) != 0 || final["attempted"].(float64) < 1 {
			t.Fatalf("%s: code=%d correct=%v failed=%v\n%s", w, code, final["correct"], final["failed"], out)
		}
		metrics := final["metrics"].(map[string]any)
		if len(metrics) != len(e2eMetrics) {
			t.Errorf("%s: %d metrics, want %d", w, len(metrics), len(e2eMetrics))
		}
		for _, m := range e2eMetrics {
			v, ok := metrics[m.name].(map[string]any)
			if !ok || v["unit"] != m.unit || v["value"].(float64) <= 0 {
				t.Errorf("%s: metric %s = %v, want a positive value in %s", w, m.name, metrics[m.name], m.unit)
			}
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, w := range workloadNames {
		final, code, out := smoke(t, w, true, false)
		if code != 0 || final["correct"] != true {
			t.Fatalf("%s traced: code=%d\n%s", w, code, out)
		}
		metrics := final["metrics"].(map[string]any)
		if len(metrics) != len(layerMetrics)+len(e2eMetrics) {
			t.Errorf("%s: %d metrics, want %d", w, len(metrics), len(layerMetrics)+len(e2eMetrics))
		}
		for _, m := range e2eMetrics {
			if _, ok := metrics["overhead."+m.name]; !ok {
				t.Errorf("%s: no overhead.%s", w, m.name)
			}
		}
		positive := []string{"bench.self_s", "cpma.self_s", "codec.sum_MBps", "cpma.has_ns_p50", "cpma.range_keys_per_s", "cpma.used_bytes_per_key"}
		switch w {
		case "set-uniform":
			positive = append(positive, "cpma.insert_batch_ms_p50")
		case "ingest-durable":
			positive = append(positive, "shard.flush_ms_p50", "shard.drain_ms_p50", "persist.replayed_keys", "persist.wal_append_us_p99", "persist.checkpoints")
		case "ingest-skewed":
			positive = append(positive, "shard.enqueue_us_p50", "shard.residency_ms_p50", "workload.dup_share")
		case "graph-stream":
			positive = append(positive, "fgraph.insert_edges_us_p50", "fgraph.view_ms_p50", "graph.pagerank_ms_p50", "graph.self_s")
		}
		for _, name := range positive {
			if v := metrics[name].(map[string]any)["value"].(float64); v <= 0 {
				t.Errorf("%s: %s = %v, want positive", w, name, v)
			}
		}
		if _, err := os.Stat(outDir + "/traces/" + w + "-seed7.json"); err != nil {
			t.Errorf("%s: trace file: %v", w, err)
		}
	}
}

func TestSmokeCorruptFails(t *testing.T) {
	t.Chdir(t.TempDir())
	for _, w := range workloadNames {
		final, code, _ := smoke(t, w, false, true)
		if code == 0 || final["correct"] != false || final["failed"].(float64) == 0 {
			t.Errorf("%s: corrupted model passed: code=%d correct=%v", w, code, final["correct"])
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with what the program
// prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	var e2e []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better == "higher"})
	}
	if !slices.Equal(e2e, e2eMetrics) {
		t.Errorf("end_to_end %v, want %v", e2e, e2eMetrics)
	}
	want := slices.Clone(layerMetrics)
	for _, m := range e2eMetrics {
		want = append(want, metricDef{"overhead." + m.name, "share", false})
	}
	var layer []metricDef
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better == "higher"})
	}
	if !slices.Equal(layer, want) {
		t.Errorf("per_layer %v, want %v", layer, want)
	}
}
