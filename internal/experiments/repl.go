package experiments

// The replication experiment: how much snapshot-read capacity a fleet of
// WAL-shipping followers adds over a single primary, plus the replication
// costs themselves (bootstrap catch-up, tail lag, tail catch-up).
//
// Capacity model: per-node serving rates are measured time-multiplexed —
// each node's readers run while every other node idles — and the fleet
// figure is their sum. That is the capacity-planning model for a real
// deployment, where each replica owns its own machine; on this benchmark
// host every node shares one Go runtime, so co-scheduling all nodes at
// once (also reported, cosched_read_tp) just splits the host's cores
// across nodes and says nothing about fleet capacity. The JSON labels
// both numbers explicitly.

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/persist"
	"repro/internal/repl"
	"repro/internal/shard"
	"repro/internal/workload"
)

// ReplConfig sizes the replication sweep.
type ReplConfig struct {
	Shards    int
	Readers   int   // reader goroutines per node
	Preload   int   // keys ingested and checkpointed before followers join
	TailKeys  int   // keys ingested live during the tail phase
	Followers []int // follower counts to sweep (0 = primary only)
	MeasureMS int   // read-measurement window per node
	KeyBits   int
	Seed      uint64
}

func (c ReplConfig) withDefaults() ReplConfig {
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.Readers < 1 {
		c.Readers = 2
	}
	if c.Preload < 1 {
		c.Preload = 100_000
	}
	if c.TailKeys < 1 {
		c.TailKeys = c.Preload / 4
	}
	if len(c.Followers) == 0 {
		c.Followers = []int{0, 1, 2, 3}
	}
	if c.MeasureMS < 1 {
		c.MeasureMS = 150
	}
	if c.KeyBits < 1 || c.KeyBits > 64 {
		c.KeyBits = 30
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// ReplRow is one follower-count measurement.
type ReplRow struct {
	Followers     int       `json:"followers"`
	CatchupMS     float64   `json:"bootstrap_catchup_ms"` // Pair -> all followers at the primary's positions
	NodeReadTP    []float64 `json:"node_read_tp"`         // solo snapshot-read rate per node (primary first)
	FleetTP       float64   `json:"fleet_read_tp"`        // sum of solo rates (time-multiplexed capacity)
	CoschedTP     float64   `json:"cosched_read_tp"`      // all nodes loaded at once on this one host
	FleetGain     float64   `json:"fleet_gain_vs_primary_only"`
	TailCatchupMS float64   `json:"tail_catchup_ms"` // live-ingest flush -> all followers caught up
	MaxLagRecords uint64    `json:"max_lag_records"` // peak sealed-but-unshipped lag during the tail phase
	ShippedKeys   uint64    `json:"shipped_keys"`
	Bootstraps    uint64    `json:"bootstraps"`
}

// ReplSweep builds a durable primary in dir, preloads and checkpoints it,
// then for each follower count: pairs that many in-process followers,
// measures bootstrap catch-up, per-node and co-scheduled snapshot-read
// rates, and the tail phase (live ingest while shipping).
func ReplSweep(cfg ReplConfig, dir string) ([]ReplRow, error) {
	cfg = cfg.withDefaults()
	s, st, err := persist.OpenSharded(cfg.Shards, &shard.Options{
		Dir:                    dir,
		SyncEvery:              64,
		CheckpointEveryBatches: -1,
		CompactEveryDeltas:     -1,
	})
	if err != nil {
		return nil, err
	}
	defer s.Close()

	r := workload.NewRNG(cfg.Seed)
	preload := workload.Uniform(r, cfg.Preload, cfg.KeyBits)
	s.InsertBatchAsync(preload, false)
	if err := s.Checkpoint(); err != nil {
		return nil, err
	}
	pr, err := repl.NewPrimary(s, st)
	if err != nil {
		return nil, err
	}

	var rows []ReplRow
	for _, nf := range cfg.Followers {
		row, err := replRound(cfg, s, st, pr, nf)
		if err != nil {
			return nil, err
		}
		rows = append(rows, *row)
	}
	if len(rows) > 0 && rows[0].FleetTP > 0 {
		for i := range rows {
			rows[i].FleetGain = rows[i].FleetTP / rows[0].FleetTP
		}
	}
	return rows, nil
}

func replRound(cfg ReplConfig, s *shard.Sharded, st *persist.Store, pr *repl.Primary, nf int) (*ReplRow, error) {
	row := &ReplRow{Followers: nf}
	statsBefore := pr.ReplStats()

	followers := make([]*repl.Follower, nf)
	links := make([]*repl.Link, nf)
	defer func() {
		for i, l := range links {
			if l != nil {
				l.Close()
			}
			if f := followers[i]; f != nil {
				f.Set().Close()
			}
		}
	}()
	start := time.Now()
	for i := range followers {
		followers[i] = repl.NewFollower(cfg.Shards, nil)
		l, err := repl.Pair(pr, followers[i], nil)
		if err != nil {
			return nil, err
		}
		links[i] = l
	}
	if err := replWaitCaughtUp(st, followers); err != nil {
		return nil, err
	}
	row.CatchupMS = float64(time.Since(start)) / float64(time.Millisecond)

	// Solo per-node rates: everyone else idle while one node serves.
	dur := time.Duration(cfg.MeasureMS) * time.Millisecond
	nodes := make([]*shard.Sharded, 0, nf+1)
	nodes = append(nodes, s)
	for _, f := range followers {
		nodes = append(nodes, f.Set())
	}
	for i, node := range nodes {
		tp := replReadRate(node, cfg.Readers, cfg.KeyBits, cfg.Seed+uint64(i), dur)
		row.NodeReadTP = append(row.NodeReadTP, tp)
		row.FleetTP += tp
	}

	// Co-scheduled: every node loaded at once on this host.
	var wg sync.WaitGroup
	cosched := make([]float64, len(nodes))
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node *shard.Sharded) {
			defer wg.Done()
			cosched[i] = replReadRate(node, cfg.Readers, cfg.KeyBits, cfg.Seed+100+uint64(i), dur)
		}(i, node)
	}
	wg.Wait()
	for _, tp := range cosched {
		row.CoschedTP += tp
	}

	// Tail phase: live ingest while the links ship, peak lag sampled, then
	// time-to-caught-up once the primary flushes.
	if nf > 0 {
		r := workload.NewRNG(cfg.Seed ^ uint64(nf))
		tail := workload.Uniform(r, cfg.TailKeys, cfg.KeyBits)
		stopLag := make(chan struct{})
		var lagDone sync.WaitGroup
		lagDone.Add(1)
		go func() {
			defer lagDone.Done()
			for {
				select {
				case <-stopLag:
					return
				case <-time.After(time.Millisecond):
				}
				if lag := pr.ReplStats().LagRecords; lag > row.MaxLagRecords {
					row.MaxLagRecords = lag
				}
			}
		}()
		for off := 0; off < len(tail); off += 4096 {
			end := off + 4096
			if end > len(tail) {
				end = len(tail)
			}
			s.InsertBatchAsync(tail[off:end], false)
		}
		s.Flush()
		tailStart := time.Now()
		if err := replWaitCaughtUp(st, followers); err != nil {
			return nil, err
		}
		row.TailCatchupMS = float64(time.Since(tailStart)) / float64(time.Millisecond)
		close(stopLag)
		lagDone.Wait()
	}

	statsAfter := pr.ReplStats()
	row.ShippedKeys = statsAfter.ShippedKeys - statsBefore.ShippedKeys
	row.Bootstraps = statsAfter.Bootstraps - statsBefore.Bootstraps
	return row, nil
}

// replReadRate runs readers goroutines of snapshot point-lookups against
// one node for dur and returns lookups per second.
func replReadRate(node *shard.Sharded, readers, bits int, seed uint64, dur time.Duration) float64 {
	var ops atomic.Uint64
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := workload.NewRNG(seed)
			mask := uint64(1)<<bits - 1
			var n uint64
			for time.Now().Before(deadline) {
				sn := node.Snapshot()
				for j := 0; j < 512; j++ {
					sn.Has(r.Uint64() & mask)
				}
				n += 512
			}
			ops.Add(n)
		}(seed + uint64(i)*7919)
	}
	wg.Wait()
	return float64(ops.Load()) / dur.Seconds()
}

func replWaitCaughtUp(st *persist.Store, followers []*repl.Follower) error {
	target := st.Positions()
	deadline := time.Now().Add(60 * time.Second)
	for {
		ok := true
		for _, f := range followers {
			for p, pos := range f.Positions() {
				if pos.Seq < target[p].Seq {
					ok = false
				}
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return errReplStuck
		}
		time.Sleep(time.Millisecond)
	}
}

var errReplStuck = &replStuckError{}

type replStuckError struct{}

func (*replStuckError) Error() string {
	return "repl sweep: followers failed to catch up within 60s"
}
