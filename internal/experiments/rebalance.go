package experiments

// The rebalance-under-skew sweep. RangePartition is the ordered-scan
// friendly routing policy, but a skewed key distribution concentrates
// load in few spans: with power-law keys (hot keys clustered at the
// bottom of the key space) one shard's writer absorbs nearly the whole
// insert stream and the pipeline degrades to single-writer throughput.
// This experiment streams the same skewed workload into a
// range-partitioned async set with the live rebalancer off and on, and
// reports per-shard load imbalance (max/mean key-count ratio), ingest
// throughput, and the rebalancer's work (boundary moves, keys moved).

import (
	"sync"
	"time"

	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/workload"
)

// RebalanceBits is the key width of the skew sweep's power-law keys.
const RebalanceBits = 30

// RebalanceRow is one (rebalance off/on) measurement of the skew sweep.
type RebalanceRow struct {
	Rebalance    bool
	Shards       int
	Clients      int
	IngestTP     float64 // inserts / second (enqueue through final Flush)
	MaxMeanRatio float64 // max/mean shard key-count ratio after the run
	MaxShardFrac float64 // hottest shard's fraction of all keys
	Moves        uint64  // boundary moves performed
	MovedKeys    uint64  // keys that changed shards
	FinalKeys    int
}

// ShardRebalanceSweep streams `clients` goroutines of power-law
// (exponent s, unscrambled — the range-partition-adversarial form)
// insert batches through a range-partitioned async set, once with the
// live rebalancer off and once with it on, and measures the resulting
// shard balance and throughput. The first half of each client's stream
// is an untimed warmup in both configurations — the rebalancer converges
// its boundaries there (the distribution is self-similar, so they stay
// put) — and the timed phase measures the steady state: balanced writers
// versus one hot shard absorbing nearly the whole stream. A trailing
// RebalanceOnce in the "on" configuration settles any residual monitor
// lag so the reported ratio is the rebalancer's steady state.
func ShardRebalanceSweep(cfg MicroConfig, shards, clients, batchSize int, s float64) []RebalanceRow {
	if shards < 1 {
		shards = 1
	}
	if clients < 1 {
		clients = 1
	}
	if batchSize < 1 {
		batchSize = 1
	}
	perClient := cfg.TotalK / clients
	if perClient < 1 {
		perClient = 1
	}
	clientBatches := make([][][]uint64, clients)
	for c := range clientBatches {
		z := workload.NewPowerLaw(workload.NewRNG(cfg.Seed+uint64(c)+1), RebalanceBits, s, false)
		var batches [][]uint64
		for got := 0; got < perClient; got += batchSize {
			n := batchSize
			if perClient-got < n {
				n = perClient - got
			}
			batches = append(batches, workload.PowerLawBatch(z, n))
		}
		clientBatches[c] = batches
	}
	var rows []RebalanceRow
	for _, rebalance := range []bool{false, true} {
		opt := &shard.Options{
			Partition: shard.RangePartition,
			KeyBits:   RebalanceBits,
		}
		if rebalance {
			opt.Rebalance = true
			opt.RebalanceEvery = 5 * time.Millisecond // keep the monitor live at bench scale
		}
		set := shard.New(shards, opt)
		run := func(phase func(batches [][]uint64) [][]uint64) {
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for _, b := range phase(clientBatches[c]) {
						set.InsertBatchAsync(b, false)
					}
				}(c)
			}
			wg.Wait()
			set.Flush()
		}
		run(func(batches [][]uint64) [][]uint64 { return batches[:len(batches)/2] })
		if rebalance {
			set.RebalanceOnce() // converge before the timed phase
		}
		timed := 0
		for c := range clientBatches {
			for _, b := range clientBatches[c][len(clientBatches[c])/2:] {
				timed += len(b)
			}
		}
		d := stats.Time(func() {
			run(func(batches [][]uint64) [][]uint64 { return batches[len(batches)/2:] })
		})
		if rebalance {
			set.RebalanceOnce()
		}
		ratio, lens := set.LoadRatio()
		maxLen, sum := 0, 0
		for _, n := range lens {
			sum += n
			if n > maxLen {
				maxLen = n
			}
		}
		frac := 0.0
		if sum > 0 {
			frac = float64(maxLen) / float64(sum)
		}
		rst := set.RebalanceStats()
		rows = append(rows, RebalanceRow{
			Rebalance:    rebalance,
			Shards:       shards,
			Clients:      clients,
			IngestTP:     stats.Throughput(timed, d),
			MaxMeanRatio: ratio,
			MaxShardFrac: frac,
			Moves:        rst.Moves,
			MovedKeys:    rst.MovedKeys,
			FinalKeys:    sum,
		})
		set.Close()
	}
	return rows
}
