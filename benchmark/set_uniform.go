package main

import (
	"slices"
	"sync/atomic"
	"time"

	"repro"
)

// absentCounter draws a keySeq counter the workloads never insert: the
// inserting counters stay far below 2^39, so its key is absent by
// construction.
func absentCounter(rg *rng) uint64 { return 1<<39 + rg.next()%(1<<38) }

// runSetUniform is the paper's core path (Fig. 1 and Fig. 7): one Set
// preloaded with uniform 40-bit keys, then closed-loop rounds of a batch
// insert of fresh keys and a batch delete of the oldest keys (so the set
// stays at its preload size and every round costs the same), point
// lookups, fixed-length range sums and, every SumEvery rounds, a whole-set
// Sum. One client: the Set is single-writer. Each batch call is its own
// write window, confirmed when it returns.
func runSetUniform(r *result) {
	p, sz, tr := r.p, r.p.sz, r.tr
	seq := newKeySeq(p.seed)
	pre := seq.keys(0, sz.SetPreload)
	var sum uint64 // model: the sum of the live keys
	for _, k := range pre {
		sum += k
	}
	radixSort(pre)
	length := rangeLen(sz)
	r.info["preload_keys"] = sz.SetPreload
	r.info["batch_keys"] = sz.SetBatch
	r.info["round"] = "InsertBatch of fresh keys, RemoveBatch of the oldest keys, lookups, range sums"
	r.info["lookups_per_round"] = sz.SetLookups
	r.info["ranges_per_round"] = sz.SetRanges
	r.info["range_length"] = length
	r.info["sum_every_rounds"] = sz.SumEvery
	r.info["set_options"] = "default"

	var set *repro.Set
	setup := setupReps(sz.SetupReps, func() float64 {
		id := tr.begin("cpma", "SetFromSorted", -1, -1)
		t0 := time.Now()
		set = repro.SetFromSorted(pre, nil)
		d := since(t0)
		tr.end(id, 1)
		r.ops(1)
		return d
	}, func() { set = nil })
	pre = nil

	if p.corrupt {
		sum++
	}
	// The live set is the keys of counters [lo, hi).
	lo, hi := uint64(0), uint64(sz.SetPreload)
	var lookupMiss, sumMiss atomic.Int64
	s := measure(r, nil, func(stop *atomic.Bool, s *samples) {
		rg := newRNG(p.seed ^ 0x5E7)
		look := make([]uint64, sz.SetLookups)
		batchCall := func(name string, rid, round int, f func()) {
			id := tr.begin("cpma", name, rid, round)
			t0 := time.Now()
			f()
			d := since(t0)
			tr.end(id, 1)
			s.visible = append(s.visible, d*1e3)
			s.updKeys += float64(sz.SetBatch)
			s.updSec += d
			if name == "InsertBatch" {
				s.insertBatch = append(s.insertBatch, d*1e3)
			}
		}
		for round := 0; !stop.Load(); round++ {
			ins, del := seq.keys(hi, sz.SetBatch), seq.keys(lo, sz.SetBatch)
			for i := range ins {
				sum += ins[i] - del[i]
			}
			hi += uint64(sz.SetBatch)
			lo += uint64(sz.SetBatch)
			// Even lookups hit live keys, odd ones miss by construction.
			for i := range look {
				if i%2 == 0 {
					look[i] = seq.key(lo + rg.next()%(hi-lo))
				} else {
					look[i] = seq.key(absentCounter(rg))
				}
			}

			rid := tr.begin("bench", "round", -1, round)
			batchCall("InsertBatch", rid, round, func() { set.InsertBatch(ins, false) })
			batchCall("RemoveBatch", rid, round, func() { set.RemoveBatch(del, false) })

			id := tr.begin("cpma", "Has", rid, round)
			for i, k := range look {
				t := time.Now()
				got := set.Has(k)
				s.point = append(s.point, elapsedNs(t))
				if got != (i%2 == 0) {
					lookupMiss.Add(1)
				}
			}
			tr.end(id, len(look))

			id = tr.begin("cpma", "RangeSum", rid, round)
			s.rangeRate = append(s.rangeRate, timedRanges(sz.SetRanges, func() (uint64, uint64) {
				lo := rangeStart(rg, length)
				return lo, lo + length
			}, set.RangeSum))
			tr.end(id, sz.SetRanges)
			r.ops(2 + len(look) + sz.SetRanges)

			if round%sz.SumEvery == 0 {
				id = tr.begin("cpma", "Sum", rid, round)
				t := time.Now()
				got := set.Sum()
				d := since(t)
				tr.end(id, 1)
				r.ops(1)
				s.analytics = append(s.analytics, d*1e3)
				s.sumBytes += float64(set.UsedBytes())
				s.sumSec += d
				if got != sum {
					sumMiss.Add(1)
				}
			}
			tr.end(rid, 1)
		}
	})
	// The Set is the cpma layer itself: its lookups and scans are the
	// layer's numbers.
	s.cpmaHas = s.point
	s.cpmaRange = s.rangeRate
	r.info["windows"] = len(s.visible)

	r.check("point-lookups", lookupMiss.Load() == 0, "%d lookups disagreed with the model", lookupMiss.Load())
	r.check("sum", sumMiss.Load() == 0, "%d Sum results disagreed with the model", sumMiss.Load())
	model := seq.keys(lo, int(hi-lo))
	if p.corrupt {
		model = corruptKeys(model, seq)
	}
	radixSort(model)
	checkKeys(r, "keys", set.Keys(), model)
	err := set.Validate()
	r.check("validate", err == nil, "%v", err)
	checkRanges(r, "ranges", set.RangeSum, model, newRNG(p.seed^0xC4EC), length, sz.Checks)
	checkLookups(r, "lookups", set.Has, model, newRNG(p.seed^0x100C), sz.Checks)

	bytesPerKey := ratio(float64(set.SizeBytes()), float64(set.Len()))
	r.layerValue("cpma.used_bytes_per_key", ratio(float64(set.UsedBytes()), float64(set.Len())))
	set = nil

	// Recovery for an in-memory set is a rebuild from the verified dump.
	var restored *repro.Set
	rec := setupReps(sz.SetupReps, func() float64 {
		id := tr.begin("cpma", "SetFromSorted", -1, -1)
		t0 := time.Now()
		restored = repro.SetFromSorted(model, nil)
		d := since(t0)
		tr.end(id, 1)
		r.ops(1)
		return d
	}, func() { restored = nil })
	checkKeys(r, "restore", restored.Keys(), model)
	r.report(s, setup, rec, bytesPerKey)
}

// corruptKeys adds absent keys to an expected key list (test hook).
func corruptKeys(keys []uint64, seq keySeq) []uint64 {
	rg := newRNG(0xBAD)
	for i := 0; i < len(keys)/8+1; i++ {
		keys = append(keys, seq.key(absentCounter(rg)))
	}
	return keys
}

// checkKeys gates a structure's full contents against the sorted model.
func checkKeys(r *result, name string, got, want []uint64) {
	if slices.Equal(got, want) {
		r.check(name, true, "")
		return
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	r.check(name, false, "%d keys, model %d, first difference at index %d", len(got), len(want), i)
}

// modelRange returns the sum and count of the sorted model's keys in
// [lo, hi).
func modelRange(model []uint64, lo, hi uint64) (sum uint64, count int) {
	i, _ := slices.BinarySearch(model, lo)
	j, _ := slices.BinarySearch(model, hi)
	for _, k := range model[i:j] {
		sum += k
	}
	return sum, j - i
}

// checkRanges gates n fixed-length range sums against the sorted model.
func checkRanges(r *result, name string, rangeSum func(lo, hi uint64) (uint64, int), model []uint64, rg *rng, length uint64, n int) {
	bad := 0
	for i := 0; i < n; i++ {
		lo := rangeStart(rg, length)
		s, c := rangeSum(lo, lo+length)
		ws, wc := modelRange(model, lo, lo+length)
		if s != ws || c != wc {
			bad++
		}
	}
	r.ops(n)
	r.check(name, bad == 0, "%d of %d range sums disagreed with the model", bad, n)
}

// checkLookups gates n point lookups, half drawn from the sorted model and
// half random, against the model.
func checkLookups(r *result, name string, has func(uint64) bool, model []uint64, rg *rng, n int) {
	bad := 0
	for i := 0; i < n; i++ {
		var k uint64
		if i%2 == 0 && len(model) > 0 {
			k = model[rg.intn(len(model))]
		} else {
			k = 1 + rg.next()%(1<<keyBits)
		}
		_, want := slices.BinarySearch(model, k)
		if has(k) != want {
			bad++
		}
	}
	r.ops(n)
	r.check(name, bad == 0, "%d of %d lookups disagreed with the model", bad, n)
}
