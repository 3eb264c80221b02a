// Setcompare: a miniature Figure 1 + Figure 2 — batch-insert and
// range-query throughput of the CPMA against the uncompressed PMA and the
// sharded front-end on this machine, over a sweep of batch sizes. The
// Sharded column waits for each batch (a ticketed InsertBatch through the
// per-shard mailboxes); the AsyncSharded column enqueues fire-and-forget
// batches into the same pipeline (with a final Flush inside the timed
// region), so the writers coalesce adjacent batches and recover Figure 1's
// batch-size amortization even though the client streams small batches.
package main

import (
	"fmt"
	"runtime"
	"time"

	"repro"
)

func main() {
	const baseN = 500_000
	const total = 500_000
	shards := runtime.GOMAXPROCS(0)
	fmt.Printf("CPMA vs PMA vs Sharded(%d) on %d cores (start %d keys, insert %d)\n\n",
		shards, runtime.GOMAXPROCS(0), baseN, total)

	fmt.Println("batch-insert throughput (keys/s):")
	fmt.Printf("%10s %12s %12s %12s %12s\n", "batch", "PMA", "CPMA", "Sharded", "AsyncSharded")
	for _, bs := range []int{100, 1_000, 10_000, 100_000} {
		pTP := measureInsert(repro.NewPMA(nil), baseN, total, bs)
		cTP := measureInsert(repro.NewSet(nil), baseN, total, bs)
		t := repro.NewAsyncShardedSet(shards, nil)
		sTP := measureInsert(t, baseN, total, bs)
		t.Close()
		a := repro.NewAsyncShardedSet(shards, nil)
		aTP := measureInsertAsync(a, baseN, total, bs)
		a.Close()
		fmt.Printf("%10d %12.0f %12.0f %12.0f %12.0f\n", bs, pTP, cTP, sTP, aTP)
	}

	fmt.Println("\nrange-query throughput (keys scanned/s):")
	p := repro.NewPMA(nil)
	c := repro.NewSet(nil)
	s := repro.NewAsyncShardedSet(shards, nil)
	defer s.Close()
	r := repro.NewRNG(1)
	keys := repro.UniformKeys(r, baseN, 40)
	p.InsertBatch(keys, false)
	c.InsertBatch(keys, false)
	s.InsertBatch(keys, false)
	fmt.Printf("%10s %12s %12s %12s\n", "avg-len", "PMA", "CPMA", "Sharded")
	for _, avgLen := range []int{100, 10_000, 100_000} {
		span := uint64(float64(uint64(1)<<40) * float64(avgLen) / float64(baseN))
		fmt.Printf("%10d %12.0f %12.0f %12.0f\n", avgLen,
			measureScan(p.RangeSum, span), measureScan(c.RangeSum, span), measureScan(s.RangeSum, span))
	}
}

type batchInserter interface {
	InsertBatch(keys []uint64, sorted bool) int
}

func measureScan(rangeSum func(lo, hi uint64) (uint64, int), span uint64) float64 {
	r := repro.NewRNG(7)
	start := time.Now()
	scanned := 0
	for q := 0; q < 200; q++ {
		lo := 1 + r.Uint64()%(uint64(1)<<40-span)
		_, cnt := rangeSum(lo, lo+span)
		scanned += cnt
	}
	return float64(scanned) / time.Since(start).Seconds()
}

func measureInsert(s batchInserter, baseN, total, bs int) float64 {
	batches := prepare(s, baseN, total, bs)
	start := time.Now()
	for _, b := range batches {
		s.InsertBatch(b, false)
	}
	return float64(total) / time.Since(start).Seconds()
}

func measureInsertAsync(s *repro.ShardedSet, baseN, total, bs int) float64 {
	batches := prepare(s, baseN, total, bs)
	start := time.Now()
	for _, b := range batches {
		s.InsertBatchAsync(b, false)
	}
	s.Flush() // only a flushed pipeline has done the work being timed
	return float64(total) / time.Since(start).Seconds()
}

// prepare preloads the base keys and draws the insert batches from the
// same key stream, so every system sees the identical workload.
func prepare(s batchInserter, baseN, total, bs int) [][]uint64 {
	r := repro.NewRNG(42)
	s.InsertBatch(repro.UniformKeys(r, baseN, 40), false)
	batches := make([][]uint64, 0, total/bs)
	for done := 0; done < total; done += bs {
		batches = append(batches, repro.UniformKeys(r, bs, 40))
	}
	return batches
}
