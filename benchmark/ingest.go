package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro"
)

// ingestModel generates the write windows of an ingest workload and keeps
// the exact expected contents. window and final are called by the writer
// only; pickPresent, sure and absent are safe for the concurrent reader.
type ingestModel interface {
	// window returns the next window's insert and delete batches and how
	// many of their keys are duplicates (already present for an insert,
	// already absent for a delete, or repeated within the batch).
	window() (ins, del []uint64, dups int)
	// deleting is called before the window's deletes are enqueued,
	// confirmed after its Flush returns.
	deleting()
	confirmed()
	// pickPresent draws a key present now; sure(token), asked after the
	// lookup, reports whether it stayed present throughout.
	pickPresent(rg *rng) (key, token uint64)
	sure(token uint64) bool
	// absent draws a key no window ever writes.
	absent(rg *rng) uint64
	// final returns the expected sorted contents.
	final() []uint64
}

// fifoModel is ingest-durable's model: every window inserts fresh uniform
// keys and deletes the oldest live ones, so the live set is exactly the
// keys of the counter interval [lo, hi) and stays at the preload size.
type fifoModel struct {
	seq    keySeq
	n      int
	lo, hi uint64        // writer's view of the live interval
	loEnq  atomic.Uint64 // deletes are enqueued for every counter below
	hiDone atomic.Uint64 // inserts are confirmed for every counter below
}

func newFIFOModel(seq keySeq, preload, batch int) *fifoModel {
	m := &fifoModel{seq: seq, n: batch, hi: uint64(preload)}
	m.hiDone.Store(m.hi)
	return m
}

func (m *fifoModel) window() (ins, del []uint64, dups int) {
	ins, del = m.seq.keys(m.hi, m.n), m.seq.keys(m.lo, m.n)
	m.hi += uint64(m.n)
	m.lo += uint64(m.n)
	return ins, del, 0 // fresh keys and live keys, distinct by construction
}

func (m *fifoModel) deleting()  { m.loEnq.Store(m.lo) }
func (m *fifoModel) confirmed() { m.hiDone.Store(m.hi) }

func (m *fifoModel) pickPresent(rg *rng) (uint64, uint64) {
	// A counter at least one window above the delete frontier, so most
	// picks stay certain through the lookup.
	lo, hi := m.loEnq.Load()+uint64(m.n), m.hiDone.Load()
	c := lo + rg.next()%(hi-lo)
	return m.seq.key(c), c
}

func (m *fifoModel) sure(c uint64) bool { return c >= m.loEnq.Load() }

func (m *fifoModel) absent(rg *rng) uint64 { return m.seq.key(absentCounter(rg)) }

func (m *fifoModel) final() []uint64 {
	out := m.seq.keys(m.lo, int(m.hi-m.lo))
	radixSort(out)
	return out
}

// skewBits bounds the power-law ranks; preload keys at or above 2^skewBits
// are never written, so lookups of them are exact while the writer runs.
const skewBits = 32

// skewModel is ingest-skewed's model: inserts and deletes drawn from an
// unscrambled power law (s=2.5) over a uniform preload, so most keys in a
// batch are repeats of a few hot keys.
type skewModel struct {
	seq  keySeq
	pl   *powerLaw
	n    int
	pre  []uint64        // sorted preload
	cold []uint64        // preload keys no window can write
	over map[uint64]bool // membership of every key a window wrote
}

func newSkewModel(seq keySeq, seed uint64, pre []uint64, batch int) *skewModel {
	m := &skewModel{seq: seq, pl: newPowerLaw(newRNG(seed^0x5CE), 2.5, skewBits), n: batch, pre: pre, over: map[uint64]bool{}}
	for _, k := range pre {
		if k >= 1<<skewBits {
			m.cold = append(m.cold, k)
		}
	}
	return m
}

func (m *skewModel) has(k uint64) bool {
	if v, ok := m.over[k]; ok {
		return v
	}
	_, ok := slices.BinarySearch(m.pre, k)
	return ok
}

// batch draws one batch, applies it to the model as an insert (want=true)
// or delete, and counts its duplicates.
func (m *skewModel) batch(want bool) ([]uint64, int) {
	keys := make([]uint64, m.n)
	seen := make(map[uint64]bool, 64)
	dups := 0
	for i := range keys {
		k := m.pl.next()
		keys[i] = k
		if seen[k] || m.has(k) == want {
			dups++
		}
		seen[k] = true
	}
	for k := range seen {
		m.over[k] = want
	}
	return keys, dups
}

func (m *skewModel) window() (ins, del []uint64, dups int) {
	ins, a := m.batch(true)
	del, b := m.batch(false)
	return ins, del, a + b
}

func (m *skewModel) deleting()  {}
func (m *skewModel) confirmed() {}

func (m *skewModel) pickPresent(rg *rng) (uint64, uint64) {
	return m.cold[rg.intn(len(m.cold))], 0
}

func (m *skewModel) sure(uint64) bool { return true }

func (m *skewModel) absent(rg *rng) uint64 {
	for {
		if k := m.seq.key(absentCounter(rg)); k >= 1<<skewBits {
			return k
		}
	}
}

func (m *skewModel) final() []uint64 {
	out := make([]uint64, 0, len(m.pre)+len(m.over))
	for _, k := range m.pre {
		if v, ok := m.over[k]; !ok || v {
			out = append(out, k)
		}
	}
	for k, v := range m.over {
		if _, ok := slices.BinarySearch(m.pre, k); v && !ok {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	return out
}

// runIngest runs ingest-durable (durable=true) or ingest-skewed: a writer
// client enqueues windows of async insert and delete batch pairs, each
// window ending in Flush, while a reader client alternates live Has
// lookups with range sums on captured snapshots and, every ScanEvery
// rounds, a whole-snapshot Sum.
func runIngest(r *result, durable bool) {
	p, sz, tr := r.p, r.p.sz, r.tr
	seq := newKeySeq(p.seed)
	pre := seq.keys(0, sz.IngestPreload)
	var model ingestModel
	pairs, batch := 1, sz.IngestBatch
	if durable {
		model = newFIFOModel(seq, sz.IngestPreload, batch)
	} else {
		sorted := slices.Clone(pre)
		radixSort(sorted)
		pairs, batch = sz.SkewPairs, sz.SkewBatch
		model = newSkewModel(seq, p.seed, sorted, batch)
	}
	length := rangeLen(sz)
	r.info["shards"] = sz.Shards
	r.info["preload_keys"] = sz.IngestPreload
	r.info["batch_keys"] = batch
	r.info["window"] = fmt.Sprintf("%d x (insert batch + delete batch), then Flush", pairs)
	r.info["reader_lookups_per_round"] = sz.ReaderLookups
	r.info["reader_ranges_per_round"] = sz.ReaderRanges
	r.info["range_length"] = length
	r.info["scan_every_rounds"] = sz.ScanEvery
	var opts *repro.ShardedSetOptions
	if durable {
		// Only the checkpoint cadence departs from the defaults, so the
		// background checkpointer completes several cycles per run.
		opts = &repro.ShardedSetOptions{CheckpointEveryBatches: sz.CheckpointEvery}
		r.info["durability"] = map[string]any{
			"sync_every":               "default (32 records)",
			"sync_bytes":               "default (1 MiB)",
			"checkpoint_every_batches": sz.CheckpointEvery,
			"compact_every_deltas":     "default (8)",
			"recover_tail_windows":     sz.RecoverTail,
		}
		r.info["partition"] = "hash (default)"
	} else {
		r.info["write_distribution"] = "unscrambled power law, s=2.5, ranks below 2^32"
		r.info["options"] = "NewAsyncShardedSet defaults (hot-key absorber off)"
	}

	var set *repro.ShardedSet
	var dir string
	// Every pass starts from empty directories and leaves none behind.
	root := filepath.Join(p.dir, "durable")
	os.RemoveAll(root)
	defer os.RemoveAll(root)
	open := func(d string) (*repro.ShardedSet, error) {
		id := tr.begin("persist", "OpenDurableShardedSet", -1, -1)
		defer tr.end(id, 1)
		r.ops(1)
		return repro.OpenDurableShardedSet(d, sz.Shards, opts)
	}
	rep := 0
	setup := setupReps(sz.SetupReps, func() float64 {
		t0 := time.Now()
		if durable {
			dir = filepath.Join(root, string(rune('a'+rep)))
			rep++
			var err error
			if set, err = open(dir); err != nil {
				r.opErr("open", err)
				return since(t0)
			}
		} else {
			id := tr.begin("shard", "NewAsyncShardedSet", -1, -1)
			set = repro.NewAsyncShardedSet(sz.Shards, nil)
			tr.end(id, 1)
		}
		tr.call("shard", "InsertBatch", -1, -1, func() { set.InsertBatch(pre, false) })
		tr.call("shard", "Flush", -1, -1, set.Flush)
		r.ops(2)
		if durable {
			var err error
			tr.call("persist", "Checkpoint", -1, -1, func() { err = set.Checkpoint() })
			r.ops(1)
			r.opErr("checkpoint", err)
		}
		return since(t0)
	}, func() {
		if set == nil {
			return
		}
		set.Close()
		if durable {
			r.opErr("close", set.PersistErr())
			os.RemoveAll(dir)
		}
	})
	if set == nil || r.failed.Load() > 0 {
		return
	}
	pre = nil

	reg := repro.NewMetrics("benchmark")
	repro.Observe(set, reg, "")
	var walDone, shardDone func(*result)
	var persist0 repro.ShardPersistStats

	var lookupMiss atomic.Int64
	s := measure(r, func() {
		walDone, shardDone, persist0 = walDelta(reg), shardDelta(set), set.PersistStats()
	}, func(stop *atomic.Bool, s *samples) {
		ins, del := make([][]uint64, pairs), make([][]uint64, pairs)
		enqueue := func(name string, rid, round int, f func()) {
			t := time.Now()
			id := tr.begin("shard", name, rid, round)
			f()
			tr.end(id, 1)
			s.enqueue = append(s.enqueue, elapsedUs(t))
		}
		for round := 0; !stop.Load(); round++ {
			keys := 0
			for i := range ins {
				var dups int
				ins[i], del[i], dups = model.window()
				s.dupKeys += float64(dups)
				keys += len(ins[i]) + len(del[i])
			}
			s.written += float64(keys)
			// Every delete of the window counts as enqueued from here on:
			// the reader's certainty check only gets stricter.
			model.deleting()
			rid := tr.begin("bench", "window", -1, round)
			t0 := time.Now()
			for i := range ins {
				enqueue("InsertBatchAsync", rid, round, func() { set.InsertBatchAsync(ins[i], false) })
				enqueue("RemoveBatchAsync", rid, round, func() { set.RemoveBatchAsync(del[i], false) })
			}
			t := time.Now()
			id := tr.begin("shard", "Flush", rid, round)
			set.Flush()
			tr.end(id, 1)
			s.flush = append(s.flush, elapsedMs(t))
			d := since(t0)
			tr.end(rid, 1)
			model.confirmed()
			r.ops(2*pairs + 1)
			s.visible = append(s.visible, d*1e3)
			s.updKeys += float64(keys)
			s.updSec += d
		}
	}, func(stop *atomic.Bool, s *samples) {
		rg := newRNG(p.seed ^ 0x8EAD)
		for round := 0; !stop.Load(); round++ {
			rid := tr.begin("bench", "read", -1, round)
			id := tr.begin("shard", "Has", rid, round)
			for i := 0; i < sz.ReaderLookups; i++ {
				want := i%2 == 0
				var k, tok uint64
				if want {
					k, tok = model.pickPresent(rg)
				} else {
					k = model.absent(rg)
				}
				t := time.Now()
				got := set.Has(k)
				s.point = append(s.point, elapsedNs(t))
				if (!want || model.sure(tok)) && got != want {
					lookupMiss.Add(1)
				}
			}
			tr.end(id, sz.ReaderLookups)

			t := time.Now()
			id = tr.begin("shard", "Snapshot", rid, round)
			snap := set.Snapshot()
			tr.end(id, 1)
			s.snapshot = append(s.snapshot, elapsedUs(t))
			id = tr.begin("shard", "Snapshot.RangeSum", rid, round)
			s.rangeRate = append(s.rangeRate, timedRanges(sz.ReaderRanges, func() (uint64, uint64) {
				lo := rangeStart(rg, length)
				return lo, lo + length
			}, snap.RangeSum))
			tr.end(id, sz.ReaderRanges)
			r.ops(sz.ReaderLookups + 1 + sz.ReaderRanges)

			if round%sz.ScanEvery == 0 {
				id = tr.begin("shard", "Snapshot+Sum", rid, round)
				t := time.Now()
				set.Snapshot().Sum()
				s.analytics = append(s.analytics, elapsedMs(t))
				tr.end(id, 1)
				r.ops(2)
			}
			if tr != nil {
				probeCPMA(tr, rid, round, snap.ShardSets(), rg, length, round%sz.ScanEvery == 0, s)
			}
			tr.end(rid, 1)
			// A client between requests gives up its processor; without
			// this the reader can hold one of two Ps for a whole time
			// slice while writer goroutines queue behind it.
			runtime.Gosched()
		}
	})
	r.info["windows"] = len(s.visible)
	r.check("point-lookups", lookupMiss.Load() == 0, "%d live lookups disagreed with the model", lookupMiss.Load())

	var persistRun repro.ShardPersistStats
	if durable {
		persistRun = set.PersistStats().Sub(persist0)
		walDone(r)
		// A fixed tail after an explicit checkpoint gives recovery the
		// same replay work on every run.
		err := set.Checkpoint()
		r.ops(1)
		r.opErr("checkpoint", err)
		for i := 0; i < sz.RecoverTail; i++ { // one pair per window, as in the run
			ins, del, _ := model.window()
			set.InsertBatchAsync(ins, false)
			set.RemoveBatchAsync(del, false)
			set.Flush()
			r.ops(3)
		}
	}
	shardDone(r)

	want := model.final()
	if p.corrupt {
		want = corruptKeys(want, seq)
		slices.Sort(want)
	}
	snap := set.Snapshot()
	checkKeys(r, "keys", snap.Keys(), want)
	err := snap.Validate()
	r.check("validate", err == nil, "%v", err)
	checkRanges(r, "ranges", snap.RangeSum, want, newRNG(p.seed^0xC4EC), length, sz.Checks)
	checkLookups(r, "lookups", set.Has, want, newRNG(p.seed^0x100C), sz.Checks)
	bytesPerKey := ratio(float64(set.SizeBytes()), float64(set.Len()))
	var used, n float64
	for _, c := range snap.ShardSets() {
		used += float64(c.UsedBytes())
		n += float64(c.Len())
	}
	r.layerValue("cpma.used_bytes_per_key", ratio(used, n))
	snap = nil
	set.Close()
	if durable {
		r.opErr("close", set.PersistErr())
	}
	set = nil

	// Recovery: reopen the store (checkpoint load plus WAL tail replay; Close
	// neither checkpoints nor truncates, so every reopen does the same
	// work), or for the in-memory set a rebuild from the verified dump.
	var restored *repro.ShardedSet
	rec := setupReps(sz.SetupReps, func() float64 {
		t0 := time.Now()
		if durable {
			var err error
			if restored, err = open(dir); err != nil {
				r.opErr("reopen", err)
			}
		} else {
			id := tr.begin("shard", "NewAsyncShardedSet", -1, -1)
			restored = repro.NewAsyncShardedSet(sz.Shards, nil)
			tr.end(id, 1)
			tr.call("shard", "InsertBatch", -1, -1, func() { restored.InsertBatch(want, true) })
			tr.call("shard", "Flush", -1, -1, restored.Flush)
			r.ops(2)
		}
		return since(t0)
	}, func() {
		if restored != nil {
			restored.Close()
			if durable {
				r.opErr("close", restored.PersistErr())
			}
		}
	})
	if restored == nil {
		return
	}
	checkKeys(r, "restore", restored.Keys(), want)
	if durable {
		ps := restored.PersistStats()
		r.layerValue("persist.replayed_keys", float64(ps.ReplayedKeys))
		r.layerValue("persist.recover_keys_per_s", ratio(float64(ps.RecoveredKeys), median(rec)))
		userBytes := 8 * float64(persistRun.AppendedKeys)
		r.layerValue("persist.wal_bytes_per_key", ratio(float64(persistRun.AppendedBytes), float64(persistRun.AppendedKeys)))
		r.layerValue("persist.write_amp", ratio(float64(persistRun.AppendedBytes+persistRun.CheckpointBytes+persistRun.DeltaBytes), userBytes))
		r.layerValue("persist.fsyncs_per_mkey", ratio(float64(persistRun.Fsyncs), float64(persistRun.AppendedKeys)/1e6))
		r.layerValue("persist.checkpoints", float64(persistRun.Checkpoints+persistRun.DeltaCheckpoints))
	}
	restored.Close()
	if durable {
		r.opErr("close", restored.PersistErr())
	}
	r.report(s, setup, rec, bytesPerKey)
}

// shardDelta captures the shard layer's counters and histograms now and
// returns a function that reports their change since.
func shardDelta(set *repro.ShardedSet) func(r *result) {
	lat0, ing0, snap0 := set.PipelineLatencies(), set.IngestStats(), set.SnapshotStats()
	return func(r *result) {
		lat := set.PipelineLatencies().Sub(lat0)
		ing := set.IngestStats().Sub(ing0)
		sn := set.SnapshotStats().Sub(snap0)
		r.layerHist("shard.snapshot_us_p50", lat.Capture, lat.Capture.Count, 0.5, 1e-3)
		r.layerHist("shard.snapshot_us_p99", lat.Capture, lat.Capture.Count, 0.99, 1e-3)
		r.layerHist("shard.residency_ms_p50", lat.Residency, lat.Residency.Count, 0.5, 1e-6)
		r.layerHist("shard.residency_ms_p99", lat.Residency, lat.Residency.Count, 0.99, 1e-6)
		r.layerHist("shard.drain_ms_p50", lat.Drain, lat.Drain.Count, 0.5, 1e-6)
		r.layerHist("shard.drain_ms_p99", lat.Drain, lat.Drain.Count, 0.99, 1e-6)
		r.layerHist("shard.publish_us_p50", lat.Publish, lat.Publish.Count, 0.5, 1e-3)
		r.layerHist("shard.publish_us_p99", lat.Publish, lat.Publish.Count, 0.99, 1e-3)
		r.layerValue("shard.coalesce_ratio", ratio(float64(ing.EnqueuedBatches), float64(ing.AppliedBatches)))
		r.layerValue("shard.clone_share", ratio(float64(sn.CloneBytes), float64(sn.FullCopyBytes)))
	}
}

// walDelta captures the registry's WAL histograms now and returns a
// function that reports their tails over the interval since.
func walDelta(reg *repro.Metrics) func(r *result) {
	before := reg.Gather()
	return func(r *result) {
		for _, m := range [][2]string{
			{"persist.wal_append_us_p99", "cpma_wal_append_ns"},
			{"persist.wal_fsync_us_p99", "cpma_wal_fsync_ns"},
		} {
			for _, a := range reg.Gather() {
				if a.Name != m[1] || a.Hist == nil {
					continue
				}
				h := *a.Hist
				for _, b := range before {
					if b.Name == m[1] && b.Hist != nil {
						h = h.Sub(*b.Hist)
					}
				}
				r.layerHist(m[0], h, h.Count, 0.99, 1e-3)
			}
		}
	}
}

// probeCPMA times the cpma layer directly on a captured snapshot's frozen
// shard Sets: a few lookups and one range sum of the given length, each in
// the key span of a random non-empty shard, and with scan set a whole Sum
// of that shard for the codec's decode rate. It is kept small so the
// traced pass stays close to the untraced one. Traced runs only.
func probeCPMA(tr *tracer, rid, round int, sets []*repro.Set, rg *rng, length uint64, scan bool, s *samples) {
	const lookups = 16
	c := sets[rg.intn(len(sets))]
	lo, ok1 := c.Min()
	hi, ok2 := c.Max()
	if !ok1 || !ok2 || hi <= lo {
		return
	}
	span := hi - lo
	id := tr.begin("cpma", "Has", rid, round)
	for i := 0; i < lookups; i++ {
		k := lo + rg.next()%span
		t := time.Now()
		c.Has(k)
		s.cpmaHas = append(s.cpmaHas, elapsedNs(t))
	}
	tr.end(id, lookups)
	id = tr.begin("cpma", "RangeSum", rid, round)
	s.cpmaRange = append(s.cpmaRange, timedRanges(1, func() (uint64, uint64) {
		start := lo + rg.next()%span
		return start, start + length
	}, c.RangeSum))
	tr.end(id, 1)
	if scan {
		id = tr.begin("cpma", "Sum", rid, round)
		t := time.Now()
		c.Sum()
		s.sumSec += since(t)
		s.sumBytes += float64(c.UsedBytes())
		tr.end(id, 1)
	}
}
