package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// sizes fixes every input size; fullSizes is what the benchmark runs and
// smokeSizes is the seconds-long scale its tests run.
type sizes struct {
	SetupReps int     // builds per run; setup_s is their median
	Warmup    float64 // seconds the clients run before measuring

	SetPreload int // set-uniform: preloaded keys
	SetBatch   int // keys per InsertBatch
	SetLookups int // Has calls per round
	SetRanges  int // RangeSum calls per round
	SumEvery   int // rounds between full Sum scans

	Shards          int // shards of every sharded set
	IngestPreload   int // ingest-*: preloaded keys
	IngestBatch     int // ingest-durable: keys per async insert and per async delete batch
	SkewBatch       int // ingest-skewed: the same
	SkewPairs       int // ingest-skewed: insert+delete pairs per window (ingest-durable: 1)
	ReaderLookups   int // live Has calls per reader round
	ReaderRanges    int // snapshot RangeSum calls per reader round
	ScanEvery       int // reader rounds between full snapshot Sum scans
	CheckpointEvery int // ingest-durable: CheckpointEveryBatches
	RecoverTail     int // ingest-durable: windows logged after the last checkpoint

	GraphScale     int // graph-stream: 2^scale vertices
	GraphPreload   int // R-MAT draws in the preloaded graph
	GraphBatch     int // R-MAT draws per insert batch
	GraphLookups   int // edge lookups per analytics round
	GraphRanges    int // adjacency range scans per analytics round
	GraphPageRankI int // PageRank iterations

	RangeFrac float64 // fixed RangeSum length as a share of the key space
	Checks    int     // lookups and ranges checked against the model at the end
}

var fullSizes = sizes{
	SetupReps: 5,
	Warmup:    2,

	SetPreload: 10_000_000,
	SetBatch:   100_000,
	SetLookups: 2000,
	SetRanges:  20,
	SumEvery:   4,

	Shards:          4,
	IngestPreload:   2_000_000,
	IngestBatch:     10_000,
	SkewBatch:       50_000,
	SkewPairs:       4,
	ReaderLookups:   200,
	ReaderRanges:    4,
	ScanEvery:       16,
	CheckpointEvery: 128,
	RecoverTail:     16,

	GraphScale:     16,
	GraphPreload:   1 << 19,
	GraphBatch:     5000,
	GraphLookups:   2000,
	GraphRanges:    500,
	GraphPageRankI: 10,

	RangeFrac: 1.0 / 1000,
	Checks:    200,
}

var smokeSizes = sizes{
	SetupReps: 2,
	Warmup:    0.1,

	SetPreload: 50_000,
	SetBatch:   2000,
	SetLookups: 100,
	SetRanges:  4,
	SumEvery:   2,

	Shards:          4,
	IngestPreload:   20_000,
	IngestBatch:     500,
	SkewBatch:       500,
	SkewPairs:       2,
	ReaderLookups:   50,
	ReaderRanges:    2,
	ScanEvery:       2,
	CheckpointEvery: 8,
	RecoverTail:     2,

	GraphScale:     10,
	GraphPreload:   4000,
	GraphBatch:     200,
	GraphLookups:   50,
	GraphRanges:    10,
	GraphPageRankI: 10,

	RangeFrac: 1.0 / 100,
	Checks:    50,
}

// runWorkload runs one pass of p.workload, traced when tr is non-nil.
func runWorkload(p params, tr *tracer) *result {
	r := newResult(p, tr)
	switch p.workload {
	case "set-uniform":
		runSetUniform(r)
	case "ingest-durable":
		runIngest(r, true)
	case "ingest-skewed":
		runIngest(r, false)
	case "graph-stream":
		runGraph(r)
	}
	self := tr.selfTime()
	for _, l := range layers {
		r.layerValue(l+".self_s", self[l])
	}
	return r
}

// samples are one client's measurements. Clients own their samples and
// merge them when the measured phase ends.
type samples struct {
	visible   dist // ms per write window, first call to confirmation
	updKeys   float64
	updSec    float64
	point     dist // ns per lookup
	rangeRate dist // keys per second of one round's range sums
	analytics dist // ms per whole-structure analytics pass

	insertBatch dist    // ms per Set.InsertBatch
	cpmaHas     dist    // ns per Has on a frozen shard Set
	cpmaRange   dist    // keys per second of one round's range sums on a shard Set
	sumBytes    float64 // UsedBytes scanned by Sum
	sumSec      float64
	enqueue     dist // us per async enqueue call
	flush       dist // ms per Flush
	snapshot    dist // us per Snapshot capture
	fgInsert    dist // us per edge batch call
	view        dist // ms per View
	lag         dist // keys behind at View capture
	bfs, pr, cc dist // ms per kernel call

	dupKeys, written, deleted float64
}

func (s *samples) merge(o *samples) {
	s.visible = append(s.visible, o.visible...)
	s.updKeys += o.updKeys
	s.updSec += o.updSec
	s.point = append(s.point, o.point...)
	s.rangeRate = append(s.rangeRate, o.rangeRate...)
	s.analytics = append(s.analytics, o.analytics...)
	s.insertBatch = append(s.insertBatch, o.insertBatch...)
	s.cpmaHas = append(s.cpmaHas, o.cpmaHas...)
	s.cpmaRange = append(s.cpmaRange, o.cpmaRange...)
	s.sumBytes += o.sumBytes
	s.sumSec += o.sumSec
	s.enqueue = append(s.enqueue, o.enqueue...)
	s.flush = append(s.flush, o.flush...)
	s.snapshot = append(s.snapshot, o.snapshot...)
	s.fgInsert = append(s.fgInsert, o.fgInsert...)
	s.view = append(s.view, o.view...)
	s.lag = append(s.lag, o.lag...)
	s.bfs = append(s.bfs, o.bfs...)
	s.pr = append(s.pr, o.pr...)
	s.cc = append(s.cc, o.cc...)
	s.dupKeys += o.dupKeys
	s.written += o.written
	s.deleted += o.deleted
}

// report sets the end-to-end metrics and the sample-based layer metrics.
func (r *result) report(s *samples, setup, recovery dist, bytesPerKey float64) {
	r.e2eDist("setup_s", setup, 0.5)
	r.e2eValue("update_keys_per_s", ratio(s.updKeys, s.updSec))
	r.e2eDist("visible_ms_p50", s.visible, 0.5)
	r.e2eDist("visible_ms_p90", s.visible, 0.9)
	r.e2eDist("point_ns_p50", s.point, 0.5)
	r.e2eDist("point_ns_p99", s.point, 0.99)
	r.e2eDist("range_keys_per_s", s.rangeRate, 0.5)
	r.e2eDist("analytics_ms_p50", s.analytics, 0.5)
	r.e2eValue("bytes_per_key", bytesPerKey)
	r.e2eDist("recover_s", recovery, 0.5)

	r.layerValue("codec.sum_MBps", ratio(s.sumBytes/1e6, s.sumSec))
	r.layerDist("cpma.insert_batch_ms_p50", s.insertBatch, 0.5)
	r.layerDist("cpma.insert_batch_ms_p90", s.insertBatch, 0.9)
	r.layerDist("cpma.has_ns_p50", s.cpmaHas, 0.5)
	r.layerDist("cpma.range_keys_per_s", s.cpmaRange, 0.5)
	r.layerDist("shard.enqueue_us_p50", s.enqueue, 0.5)
	r.layerDist("shard.enqueue_us_p99", s.enqueue, 0.99)
	r.layerDist("shard.flush_ms_p50", s.flush, 0.5)
	r.layerDist("shard.flush_ms_p90", s.flush, 0.9)
	r.layerDist("fgraph.insert_edges_us_p50", s.fgInsert, 0.5)
	r.layerDist("fgraph.insert_edges_us_p99", s.fgInsert, 0.99)
	r.layerDist("fgraph.view_ms_p50", s.view, 0.5)
	r.layerDist("fgraph.view_lag_keys_p50", s.lag, 0.5)
	r.layerDist("graph.bfs_ms_p50", s.bfs, 0.5)
	r.layerDist("graph.pagerank_ms_p50", s.pr, 0.5)
	r.layerDist("graph.cc_ms_p50", s.cc, 0.5)
	r.layerValue("workload.dup_share", ratio(s.dupKeys, s.written))
}

// measure warms the clients up for Warmup seconds with their samples
// discarded and tracing paused, so caches fill and lazy set-up finishes
// before timing; then it calls begin (to snapshot the program's counters)
// and runs them for p.seconds, returning the merged samples.
func measure(r *result, begin func(), clients ...func(stop *atomic.Bool, s *samples)) *samples {
	r.tr.pause(true)
	run(r.p.sz.Warmup, clients)
	r.tr.pause(false)
	if begin != nil {
		begin()
	}
	return run(r.p.seconds, clients)
}

// run runs each client in its own goroutine for the given seconds and
// returns the merged samples. Clients poll stop between rounds, so every
// round they start completes.
func run(seconds float64, clients []func(stop *atomic.Bool, s *samples)) *samples {
	var stop atomic.Bool
	out := make([]samples, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c(&stop, &out[i])
		}()
	}
	time.Sleep(time.Duration(seconds * float64(time.Second)))
	stop.Store(true)
	wg.Wait()
	all := &samples{}
	for i := range out {
		all.merge(&out[i])
	}
	return all
}

// setupReps times build SetupReps times, tearing down every build but the
// last, and returns the build times in seconds. Garbage from the previous
// build is collected outside the timed region.
func setupReps(n int, build func() float64, teardown func()) dist {
	var d dist
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown()
		}
		runtime.GC()
		d = append(d, build())
	}
	return d
}

// elapsedNs, elapsedUs and elapsedMs return the time since t0 in the unit
// named.
func elapsedNs(t0 time.Time) float64 { return float64(time.Since(t0).Nanoseconds()) }
func elapsedUs(t0 time.Time) float64 { return elapsedNs(t0) / 1e3 }
func elapsedMs(t0 time.Time) float64 { return elapsedNs(t0) / 1e6 }

// timedRanges runs n range sums from next and returns the round's rate in
// keys per second. Rates are per round, and the metric their median, so a
// preempted call spoils one round rather than the run.
func timedRanges(n int, next func() (lo, hi uint64), rangeSum func(lo, hi uint64) (uint64, int)) float64 {
	var keys, sec float64
	for j := 0; j < n; j++ {
		lo, hi := next()
		t := time.Now()
		_, c := rangeSum(lo, hi)
		sec += since(t)
		keys += float64(c)
	}
	return ratio(keys, sec)
}

// rangeLen returns the fixed RangeSum length over the 40-bit key space.
func rangeLen(sz sizes) uint64 { return uint64(float64(uint64(1)<<keyBits) * sz.RangeFrac) }

// rangeStart draws a uniform range start so [start, start+length) stays in
// the key space.
func rangeStart(rg *rng, length uint64) uint64 {
	return 1 + rg.next()%(uint64(1)<<keyBits-length)
}
