package main

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// metricDef names a metric, its unit and whether higher values are
// better.
type metricDef struct {
	name, unit string
	higher     bool
}

// e2eMetrics are the end-to-end metrics every workload reports; each is
// measured on every workload (see METRICS.md for what each means there).
var e2eMetrics = []metricDef{
	{"setup_s", "s", false},
	{"update_keys_per_s", "keys/s", true},
	{"visible_ms_p50", "ms", false},
	{"visible_ms_p90", "ms", false},
	{"point_ns_p50", "ns", false},
	{"point_ns_p99", "ns", false},
	{"range_keys_per_s", "keys/s", true},
	{"analytics_ms_p50", "ms", false},
	{"bytes_per_key", "B/key", false},
	{"recover_s", "s", false},
}

// layerMetrics are the per-layer metrics a traced run reports. A layer a
// workload does not exercise reports 0 with no samples.
var layerMetrics = []metricDef{
	{"codec.sum_MBps", "MB/s", true},
	{"cpma.insert_batch_ms_p50", "ms", false},
	{"cpma.insert_batch_ms_p90", "ms", false},
	{"cpma.has_ns_p50", "ns", false},
	{"cpma.range_keys_per_s", "keys/s", true},
	{"cpma.used_bytes_per_key", "B/key", false},
	{"shard.enqueue_us_p50", "us", false},
	{"shard.enqueue_us_p99", "us", false},
	{"shard.flush_ms_p50", "ms", false},
	{"shard.flush_ms_p90", "ms", false},
	{"shard.snapshot_us_p50", "us", false},
	{"shard.snapshot_us_p99", "us", false},
	{"shard.coalesce_ratio", "ratio", true},
	{"shard.clone_share", "ratio", false},
	{"shard.residency_ms_p50", "ms", false},
	{"shard.residency_ms_p99", "ms", false},
	{"shard.drain_ms_p50", "ms", false},
	{"shard.drain_ms_p99", "ms", false},
	{"shard.publish_us_p50", "us", false},
	{"shard.publish_us_p99", "us", false},
	{"persist.wal_bytes_per_key", "B/key", false},
	{"persist.write_amp", "ratio", false},
	{"persist.fsyncs_per_mkey", "1/Mkey", false},
	{"persist.checkpoints", "count", true},
	{"persist.wal_append_us_p99", "us", false},
	{"persist.wal_fsync_us_p99", "us", false},
	{"persist.replayed_keys", "keys", false},
	{"persist.recover_keys_per_s", "keys/s", true},
	{"fgraph.insert_edges_us_p50", "us", false},
	{"fgraph.insert_edges_us_p99", "us", false},
	{"fgraph.view_ms_p50", "ms", false},
	{"fgraph.view_lag_keys_p50", "keys", false},
	{"graph.bfs_ms_p50", "ms", false},
	{"graph.pagerank_ms_p50", "ms", false},
	{"graph.cc_ms_p50", "ms", false},
	{"workload.dup_share", "share", false},
	{"bench.self_s", "s", false},
	{"cpma.self_s", "s", false},
	{"shard.self_s", "s", false},
	{"persist.self_s", "s", false},
	{"fgraph.self_s", "s", false},
	{"graph.self_s", "s", false},
}

// metric is one reported value; Dist carries the samples behind a timing.
type metric struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Dist  *summary `json:"samples,omitempty"`
}

// gate is one correctness check against the benchmark's model.
type gate struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result collects one pass of a workload.
type result struct {
	p  params
	tr *tracer

	mu    sync.Mutex
	e2e   map[string]metric
	layer map[string]metric
	gates []gate
	info  map[string]any

	attempted atomic.Int64 // public calls issued plus correctness gates
	failed    atomic.Int64 // calls that returned an error plus failed gates
}

func newResult(p params, tr *tracer) *result {
	r := &result{p: p, tr: tr, e2e: map[string]metric{}, layer: map[string]metric{}, info: map[string]any{}}
	for _, m := range e2eMetrics {
		r.e2e[m.name] = metric{Unit: m.unit}
	}
	for _, m := range layerMetrics {
		r.layer[m.name] = metric{Unit: m.unit}
	}
	return r
}

// ops counts n attempted public calls.
func (r *result) ops(n int) { r.attempted.Add(int64(n)) }

// opErr counts a call that returned an error.
func (r *result) opErr(what string, err error) {
	if err != nil {
		r.failed.Add(1)
		r.check(what, false, "%v", err)
	}
}

// check records a correctness gate; a failed gate counts as a failed
// operation and fails the run.
func (r *result) check(name string, ok bool, format string, args ...any) {
	r.attempted.Add(1)
	g := gate{Name: name, OK: ok}
	if !ok {
		r.failed.Add(1)
		g.Detail = fmt.Sprintf(format, args...)
	}
	r.mu.Lock()
	r.gates = append(r.gates, g)
	r.mu.Unlock()
}

func (r *result) verified() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.gates) == 0 {
		return false
	}
	for _, g := range r.gates {
		if !g.OK {
			return false
		}
	}
	return r.failed.Load() == 0
}

func (r *result) failedShare() float64 {
	a := r.attempted.Load()
	if a == 0 {
		return 1
	}
	return float64(r.failed.Load()) / float64(a)
}

func (r *result) set(table map[string]metric, name string, v float64, s *summary) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := table[name]
	if !ok {
		panic("benchmark: unknown metric " + name)
	}
	m.Value, m.Dist = v, s
	table[name] = m
}

// e2eValue and layerValue set a plain value; e2eDist and layerDist set a
// timing from its samples at quantile q.
func (r *result) e2eValue(name string, v float64)   { r.set(r.e2e, name, v, nil) }
func (r *result) layerValue(name string, v float64) { r.set(r.layer, name, v, nil) }

func (r *result) e2eDist(name string, d dist, q float64) {
	s := d.summary()
	r.set(r.e2e, name, d.q(q), &s)
}

func (r *result) layerDist(name string, d dist, q float64) {
	if len(d) == 0 {
		return
	}
	s := d.summary()
	r.set(r.layer, name, d.q(q), &s)
}

// layerHist sets a per-layer timing from a program histogram capture
// (nanoseconds), scaled to the metric's unit.
func (r *result) layerHist(name string, h histSnap, n uint64, q, scale float64) {
	if n == 0 {
		return
	}
	s := histSummary(h, n, scale)
	r.set(r.layer, name, h.Quantile(q)*scale, &s)
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
