package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/fgraph"
	"repro/internal/graph"
	"repro/internal/stats"
	"repro/internal/workload"
)

// StreamConfig parameterizes the streaming-graph sweep: ingest rate versus
// analytics latency versus snapshot staleness on the sharded F-Graph,
// across shard counts.
type StreamConfig struct {
	Seed       uint64
	Scale      int     // R-MAT scale; vertex space is 1<<Scale
	Shards     []int   // shard counts to sweep (at least two for the figure)
	Batches    int     // edge batches per shard count
	BatchSize  int     // inserted edges per batch
	DeleteFrac float64 // fraction of each batch emitted as deletes
	PRIters    int
	// Verify checks every mid-stream view's BFS/PR/CC results bytewise
	// against a phased single-CPMA graph holding the captured edge set,
	// and the final flushed view against a full replay of the stream —
	// the CI smoke gate. Costs a reference build per analytics round.
	Verify bool
}

// DefaultStream returns the committed-benchmark configuration.
func DefaultStream() StreamConfig {
	return StreamConfig{
		Seed:       42,
		Scale:      17,
		Shards:     []int{2, 8},
		Batches:    64,
		BatchSize:  100_000,
		DeleteFrac: 0.2,
		PRIters:    10,
	}
}

// StreamRow is one shard count's measurement: how fast edges streamed in,
// how long each analytics kernel took against mid-stream views, and how
// stale those views were.
type StreamRow struct {
	Shards          int     `json:"shards"`
	Batches         int     `json:"batches"`
	BatchSize       int     `json:"batch_size"`
	DeleteFrac      float64 `json:"delete_frac"`
	IngestKeysPerS  float64 `json:"ingest_keys_per_sec"`
	AnalyticsRounds int     `json:"analytics_rounds"`
	ViewBuildMs     float64 `json:"view_build_ms_mean"`
	BFSMs           float64 `json:"bfs_ms_mean"`
	PRMs            float64 `json:"pagerank_ms_mean"`
	CCMs            float64 `json:"cc_ms_mean"`
	LagKeysMean     float64 `json:"lag_keys_mean"`
	LagKeysMax      uint64  `json:"lag_keys_max"`
	ViewAgeMsMean   float64 `json:"view_age_ms_mean"`
	FinalEdges      int64   `json:"final_edges"`
	Verified        bool    `json:"verified"`
}

// GraphStreamSweep runs the streaming benchmark: for each shard count, one
// goroutine pushes EdgeStream insert/delete batches through the async
// pipeline while the caller's goroutine repeatedly captures Views and runs
// BFS, PageRank, and CC against them — no Flush between analytics rounds,
// so the views really are mid-stream cuts and their LagKeys/Age report the
// staleness the paper's phased design cannot have. With cfg.Verify every
// view (and the final flushed state) must match the single-CPMA reference
// bytewise; any divergence aborts the sweep with an error.
func GraphStreamSweep(cfg StreamConfig) ([]StreamRow, error) {
	var rows []StreamRow
	for _, shards := range cfg.Shards {
		row, err := streamOne(cfg, shards)
		if err != nil {
			return rows, fmt.Errorf("shards=%d: %w", shards, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func streamOne(cfg StreamConfig, shards int) (StreamRow, error) {
	nv := 1 << cfg.Scale
	row := StreamRow{
		Shards:     shards,
		Batches:    cfg.Batches,
		BatchSize:  cfg.BatchSize,
		DeleteFrac: cfg.DeleteFrac,
	}
	g := fgraph.NewSharded(nv, shards, nil)
	defer g.Close()
	observeGraph(fmt.Sprintf("stream shards=%d scale=%d", shards, cfg.Scale), g)

	totalKeys := 0
	done := make(chan error, 1)
	var ingestTime time.Duration
	go func() {
		t0 := time.Now()
		stream := workload.NewEdgeStream(cfg.Seed, cfg.Scale, cfg.DeleteFrac)
		for b := 0; b < cfg.Batches; b++ {
			ins, del := stream.Next(cfg.BatchSize)
			if err := g.InsertEdges(ins); err != nil {
				done <- err
				return
			}
			totalKeys += len(ins)
			if len(del) > 0 {
				if err := g.DeleteEdges(del); err != nil {
					done <- err
					return
				}
				totalKeys += len(del)
			}
		}
		g.Flush() // the rate includes draining, not just enqueueing
		ingestTime = time.Since(t0)
		done <- nil
	}()

	var buildMs, bfsMs, prMs, ccMs, lagSum, ageMs float64
	ingesting := true
	for ingesting {
		select {
		case err := <-done:
			if err != nil {
				return row, err
			}
			ingesting = false
		default:
			t0 := time.Now()
			v := g.View()
			buildMs += time.Since(t0).Seconds() * 1e3
			var bfs []int32
			var pr []float64
			var cc []uint32
			bfsMs += stats.Time(func() { bfs = graph.BFS(v, 1) }).Seconds() * 1e3
			prMs += stats.Time(func() { pr = graph.PageRank(v, cfg.PRIters) }).Seconds() * 1e3
			ccMs += stats.Time(func() { cc = graph.ConnectedComponents(v) }).Seconds() * 1e3
			lag := v.LagKeys()
			lagSum += float64(lag)
			if lag > row.LagKeysMax {
				row.LagKeysMax = lag
			}
			ageMs += v.Age().Seconds() * 1e3
			row.AnalyticsRounds++
			if cfg.Verify {
				if err := verifyAgainstReference(v, bfs, pr, cc, cfg.PRIters); err != nil {
					return row, fmt.Errorf("analytics round %d: %w", row.AnalyticsRounds, err)
				}
			}
		}
	}
	if row.AnalyticsRounds > 0 {
		n := float64(row.AnalyticsRounds)
		row.ViewBuildMs = buildMs / n
		row.BFSMs = bfsMs / n
		row.PRMs = prMs / n
		row.CCMs = ccMs / n
		row.LagKeysMean = lagSum / n
		row.ViewAgeMsMean = ageMs / n
	}
	row.IngestKeysPerS = stats.Throughput(totalKeys, ingestTime)
	row.FinalEdges = g.NumEdges()

	if cfg.Verify {
		// The flushed state must equal a full single-CPMA replay of the
		// identical stream — end-to-end set equality, not just a cut.
		ref := fgraph.New(nv, nil)
		stream := workload.NewEdgeStream(cfg.Seed, cfg.Scale, cfg.DeleteFrac)
		for b := 0; b < cfg.Batches; b++ {
			ins, del := stream.Next(cfg.BatchSize)
			ref.InsertEdges(ins)
			ref.DeleteEdges(del)
		}
		v := g.View()
		if v.NumEdges() != ref.NumEdges() {
			return row, fmt.Errorf("flushed view holds %d edges, full replay %d", v.NumEdges(), ref.NumEdges())
		}
		refKeys := ref.Set().Keys()
		// The kernels are defined over symmetric graphs; the stream must
		// have built one.
		if err := checkSymmetric(refKeys); err != nil {
			return row, fmt.Errorf("full replay: %w", err)
		}
		gotKeys := v.Snapshot().Keys()
		for i := range refKeys {
			if gotKeys[i] != refKeys[i] {
				return row, fmt.Errorf("flushed view key[%d] = %#x, full replay %#x", i, gotKeys[i], refKeys[i])
			}
		}
		row.Verified = true
	}
	return row, nil
}

// checkSymmetric reports the first packed src<<32|dst edge key in the
// sorted keys whose reverse edge is missing.
func checkSymmetric(keys []uint64) error {
	for _, k := range keys {
		r := k<<32 | k>>32
		if _, ok := slices.BinarySearch(keys, r); !ok {
			return fmt.Errorf("graph not symmetric: edge %d->%d has no reverse", k>>32, uint32(k))
		}
	}
	return nil
}

// verifyAgainstReference rebuilds the captured edge set in a phased
// single-CPMA graph and demands bytewise-equal kernel results.
func verifyAgainstReference(v *fgraph.View, bfs []int32, pr []float64, cc []uint32, prIters int) error {
	ref := fgraph.New(v.NumVertices(), nil)
	ref.InsertEdgeKeys(v.Snapshot().Keys(), true)
	ref.EnsureIndex()
	wantBFS := graph.BFS(ref, 1)
	wantPR := graph.PageRank(ref, prIters)
	wantCC := graph.ConnectedComponents(ref)
	for i := range wantBFS {
		if bfs[i] != wantBFS[i] {
			return fmt.Errorf("BFS[%d] = %d, reference %d", i, bfs[i], wantBFS[i])
		}
		if pr[i] != wantPR[i] {
			return fmt.Errorf("PR[%d] not bit-identical: %x vs %x", i, pr[i], wantPR[i])
		}
		if cc[i] != wantCC[i] {
			return fmt.Errorf("CC[%d] = %d, reference %d", i, cc[i], wantCC[i])
		}
	}
	return nil
}

// WriteGraphStream renders the streaming sweep.
func WriteGraphStream(w io.Writer, rows []StreamRow) {
	fmt.Fprintln(w, "Streaming F-Graph: concurrent ingest vs analytics vs snapshot staleness")
	t := stats.NewTable("shards", "ingest keys/s", "rounds", "view ms", "BFS ms", "PR ms", "CC ms", "lag mean", "lag max", "age ms")
	for _, r := range rows {
		t.Row(r.Shards, stats.Sci(r.IngestKeysPerS), r.AnalyticsRounds,
			fmt.Sprintf("%.2f", r.ViewBuildMs),
			fmt.Sprintf("%.2f", r.BFSMs),
			fmt.Sprintf("%.2f", r.PRMs),
			fmt.Sprintf("%.2f", r.CCMs),
			stats.Sci(r.LagKeysMean),
			stats.Sci(float64(r.LagKeysMax)),
			fmt.Sprintf("%.2f", r.ViewAgeMsMean))
	}
	t.Write(w)
}
