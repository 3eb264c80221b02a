package main

import (
	"math"
	"slices"
	"sync/atomic"
	"time"

	"repro"
)

// graphModel is graph-stream's model: the exact undirected edge set. The
// benchmark generates the stream symmetrically itself — every batch
// carries both directions of each edge and never a self-loop, so never the
// unstorable edge (0,0) — because the graph kernels require symmetric
// storage.
type graphModel struct {
	rg    *rng
	scale int
	idx   map[uint64]int // canonical key (min<<32|max) -> position in list
	list  []uint64
}

func newGraphModel(seed uint64, scale int) *graphModel {
	return &graphModel{rg: newRNG(seed ^ 0x62A9), scale: scale, idx: map[uint64]int{}}
}

func canonical(u, v uint32) uint64 {
	if u > v {
		u, v = v, u
	}
	return edgeKey(u, v)
}

// insertBatch draws n R-MAT edges (redrawing self-loops), applies them and
// returns both directions of each, with the number of directed keys that
// were already present or repeated within the batch and the number of new
// undirected edges.
func (m *graphModel) insertBatch(n int) (edges []repro.Edge, dups, added int) {
	out := make([]repro.Edge, 0, 2*n)
	for i := 0; i < n; i++ {
		u, v := rmatEdge(m.rg, m.scale)
		for u == v {
			u, v = rmatEdge(m.rg, m.scale)
		}
		out = append(out, repro.Edge{Src: u, Dst: v}, repro.Edge{Src: v, Dst: u})
		c := canonical(u, v)
		if _, ok := m.idx[c]; ok {
			dups += 2
			continue
		}
		m.idx[c] = len(m.list)
		m.list = append(m.list, c)
		added++
	}
	return out, dups, added
}

// deleteBatch removes n random present edges and returns both directions
// of each.
func (m *graphModel) deleteBatch(n int) []repro.Edge {
	out := make([]repro.Edge, 0, 2*n)
	for i := 0; i < n && len(m.list) > 0; i++ {
		j := m.rg.intn(len(m.list))
		c := m.list[j]
		last := len(m.list) - 1
		m.list[j] = m.list[last]
		m.idx[m.list[j]] = j
		m.list = m.list[:last]
		delete(m.idx, c)
		u, v := uint32(c>>32), uint32(c)
		out = append(out, repro.Edge{Src: u, Dst: v}, repro.Edge{Src: v, Dst: u})
	}
	return out
}

// edges returns both directions of every edge, in the model's order.
func (m *graphModel) edges() []repro.Edge {
	out := make([]repro.Edge, 0, 2*len(m.list))
	for _, c := range m.list {
		u, v := uint32(c>>32), uint32(c)
		out = append(out, repro.Edge{Src: u, Dst: v}, repro.Edge{Src: v, Dst: u})
	}
	return out
}

// keys returns the sorted directed keys of the edge set.
func (m *graphModel) keys() []uint64 {
	out := make([]uint64, 0, 2*len(m.list))
	for _, c := range m.list {
		u, v := uint32(c>>32), uint32(c)
		out = append(out, edgeKey(u, v), edgeKey(v, u))
	}
	radixSort(out)
	return out
}

// symmetric reports whether every directed key's reverse is present.
func symmetric(keys []uint64) bool {
	for _, k := range keys {
		if _, ok := slices.BinarySearch(keys, edgeKey(uint32(k), uint32(k>>32))); !ok {
			return false
		}
	}
	return true
}

// csr is the sequential reference graph built from sorted directed keys.
type csr struct {
	off []int
	adj []uint32
}

func newCSR(n int, keys []uint64) csr {
	g := csr{off: make([]int, n+1), adj: make([]uint32, len(keys))}
	for i, k := range keys {
		g.off[k>>32+1]++
		g.adj[i] = uint32(k)
	}
	for i := 0; i < n; i++ {
		g.off[i+1] += g.off[i]
	}
	return g
}

func (g csr) bfs(src uint32) []int32 {
	n := len(g.off) - 1
	depth := make([]int32, n)
	for i := range depth {
		depth[i] = -1
	}
	depth[src] = 0
	q := []uint32{src}
	for len(q) > 0 {
		u := q[0]
		q = q[1:]
		for _, w := range g.adj[g.off[u]:g.off[u+1]] {
			if depth[w] < 0 {
				depth[w] = depth[u] + 1
				q = append(q, w)
			}
		}
	}
	return depth
}

// cc labels each vertex with the smallest id in its component.
func (g csr) cc() []uint32 {
	n := len(g.off) - 1
	parent := make([]uint32, n)
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := 0; u < n; u++ {
		for _, w := range g.adj[g.off[u]:g.off[u+1]] {
			a, b := find(uint32(u)), find(w)
			if a < b {
				parent[b] = a
			} else if b < a {
				parent[a] = b
			}
		}
	}
	labels := make([]uint32, n)
	for i := range labels {
		labels[i] = find(uint32(i))
	}
	return labels
}

// pageRank is the pull formulation the program documents: damping 0.85,
// uniform start, zero-degree vertices contributing nothing.
func (g csr) pageRank(iters int) []float64 {
	n := len(g.off) - 1
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	contrib := make([]float64, n)
	for it := 0; it < iters; it++ {
		for i := range contrib {
			if d := g.off[i+1] - g.off[i]; d > 0 {
				contrib[i] = rank[i] / float64(d)
			} else {
				contrib[i] = 0
			}
		}
		for i := range rank {
			sum := 0.0
			for _, w := range g.adj[g.off[i]:g.off[i+1]] {
				sum += contrib[w]
			}
			rank[i] = 0.15/float64(n) + 0.85*sum
		}
	}
	return rank
}

// prTolerance bounds PageRank's difference from the sequential reference:
// the kernels sum contributions in another order, so the results agree to
// rounding only.
const prTolerance = 1e-9

// checkKernels gates BFS depths and CC labels exactly, and PageRank within
// prTolerance (relative, plus 1e-15 absolute), on a view of a flushed
// graph against the sequential reference over the model's keys.
func checkKernels(r *result, name string, v *repro.FGraphView, keys []uint64, iters int) {
	r.check(name+"-symmetric", symmetric(keys), "the model is not symmetric")
	g := newCSR(v.NumVertices(), keys)
	bfs := repro.BFS(v, 0)
	r.check(name+"-bfs", slices.Equal(bfs, g.bfs(0)), "BFS depths differ from the reference")
	cc := repro.ConnectedComponents(v)
	r.check(name+"-cc", slices.Equal(cc, g.cc()), "CC labels differ from the reference")
	pr, ref := repro.PageRank(v, iters), g.pageRank(iters)
	worst := 0.0
	for i := range ref {
		if i < len(pr) {
			worst = max(worst, math.Abs(pr[i]-ref[i])/(math.Abs(ref[i])+1e-15))
		}
	}
	r.check(name+"-pagerank", len(pr) == len(ref) && worst <= prTolerance, "PageRank differs by %.3g relative", worst)
	r.ops(3)
}

// runGraph is the streaming-graph workload on a ShardedFGraph: a writer
// client enqueues symmetric R-MAT insert batches and delete batches of
// present edges, each window ending in Flush; an analytics client captures
// a View without flushing each round and runs BFS, PageRank and CC on it,
// then edge lookups and adjacency range sums on the view's snapshot.
func runGraph(r *result) {
	p, sz, tr := r.p, r.p.sz, r.tr
	nv := 1 << sz.GraphScale
	model := newGraphModel(p.seed, sz.GraphScale)
	// The preload is loaded the way a user loads an edge list: one
	// unsorted batch of both directions.
	preEdges, _, _ := model.insertBatch(sz.GraphPreload)
	pre := model.keys()
	r.info["scale"] = sz.GraphScale
	r.info["vertices"] = nv
	r.info["shards"] = sz.Shards
	r.info["preload_directed_edges"] = len(pre)
	r.info["insert_draws_per_batch"] = sz.GraphBatch
	r.info["delete_edges_per_batch"] = "as many as the insert batch added, so the graph keeps its preload size"
	r.info["window"] = "1 symmetric insert batch + 1 symmetric delete batch, then Flush"
	r.info["pagerank_iters"] = sz.GraphPageRankI
	r.info["pagerank_tolerance"] = prTolerance
	r.info["options"] = "NewShardedFGraph defaults"

	var g *repro.ShardedFGraph
	setup := setupReps(sz.SetupReps, func() float64 {
		t0 := time.Now()
		id := tr.begin("fgraph", "NewShardedFGraph", -1, -1)
		g = repro.NewShardedFGraph(nv, sz.Shards, nil)
		tr.end(id, 1)
		var err error
		tr.call("fgraph", "InsertEdges", -1, -1, func() { err = g.InsertEdges(preEdges) })
		tr.call("fgraph", "Flush", -1, -1, g.Flush)
		r.ops(2)
		r.opErr("preload", err)
		return since(t0)
	}, func() { g.Close() })
	preEdges = nil
	checkKernels(r, "preload", g.View(), pre, sz.GraphPageRankI)
	pre = nil
	if r.failed.Load() > 0 {
		g.Close()
		return
	}

	var shardDone func(*result)
	s := measure(r, func() { shardDone = shardDelta(g.Set()) }, func(stop *atomic.Bool, s *samples) {
		for round := 0; !stop.Load(); round++ {
			ins, dups, added := model.insertBatch(sz.GraphBatch)
			del := model.deleteBatch(added)
			s.dupKeys += float64(dups)
			s.written += float64(len(ins) + len(del))
			s.deleted += float64(len(del))
			rid := tr.begin("bench", "window", -1, round)
			t0 := time.Now()
			t := t0
			id := tr.begin("fgraph", "InsertEdges", rid, round)
			err := g.InsertEdges(ins)
			tr.end(id, 1)
			s.fgInsert = append(s.fgInsert, elapsedUs(t))
			r.opErr("insert-edges", err)
			t = time.Now()
			id = tr.begin("fgraph", "DeleteEdges", rid, round)
			err = g.DeleteEdges(del)
			tr.end(id, 1)
			s.fgInsert = append(s.fgInsert, elapsedUs(t))
			r.opErr("delete-edges", err)
			t = time.Now()
			id = tr.begin("fgraph", "Flush", rid, round)
			g.Flush()
			tr.end(id, 1)
			s.flush = append(s.flush, elapsedMs(t))
			d := since(t0)
			tr.end(rid, 1)
			r.ops(3)
			s.visible = append(s.visible, d*1e3)
			s.updKeys += float64(len(ins) + len(del))
			s.updSec += d
		}
	}, func(stop *atomic.Bool, s *samples) {
		rg := newRNG(p.seed ^ 0xA7A1)
		for round := 0; !stop.Load(); round++ {
			rid := tr.begin("bench", "analytics", -1, round)
			t0 := time.Now()
			id := tr.begin("fgraph", "View", rid, round)
			v := g.View()
			tr.end(id, 1)
			s.view = append(s.view, elapsedMs(t0))
			s.lag = append(s.lag, float64(v.LagKeys()))
			t := time.Now()
			tr.call("graph", "BFS", rid, round, func() { repro.BFS(v, 0) })
			s.bfs = append(s.bfs, elapsedMs(t))
			t = time.Now()
			tr.call("graph", "PageRank", rid, round, func() { repro.PageRank(v, sz.GraphPageRankI) })
			s.pr = append(s.pr, elapsedMs(t))
			t = time.Now()
			tr.call("graph", "ConnectedComponents", rid, round, func() { repro.ConnectedComponents(v) })
			s.cc = append(s.cc, elapsedMs(t))
			s.analytics = append(s.analytics, elapsedMs(t0))

			snap := v.Snapshot()
			id = tr.begin("shard", "Snapshot.Has", rid, round)
			for i := 0; i < sz.GraphLookups; i++ {
				k := edgeKey(uint32(rg.intn(nv)), uint32(rg.intn(nv)))
				if i%2 == 0 {
					// An edge that likely exists: a random neighbor pick
					// would need the index, so take the vertex's first key.
					if nk, ok := snap.Next(k &^ (1<<32 - 1)); ok {
						k = nk
					}
				}
				t := time.Now()
				snap.Has(k)
				s.point = append(s.point, elapsedNs(t))
			}
			tr.end(id, sz.GraphLookups)
			id = tr.begin("shard", "Snapshot.RangeSum", rid, round)
			s.rangeRate = append(s.rangeRate, timedRanges(sz.GraphRanges, func() (uint64, uint64) {
				u := uint64(rg.intn(nv))
				return u << 32, (u + 1) << 32
			}, snap.RangeSum))
			tr.end(id, sz.GraphRanges)
			r.ops(4 + 2*sz.GraphLookups + sz.GraphRanges)
			if tr != nil {
				probeCPMA(tr, rid, round, snap.ShardSets(), rg, 64<<32, true, s)
			}
			tr.end(rid, 1)
		}
	})
	r.info["windows"] = len(s.visible)
	r.info["analytics_rounds"] = len(s.analytics)
	r.info["delete_share"] = s.deleted / s.written
	shardDone(r)

	g.Flush()
	want := model.keys()
	if p.corrupt {
		want = corruptEdges(want, nv)
	}
	v := g.View()
	snap := v.Snapshot()
	checkKeys(r, "keys", snap.Keys(), want)
	err := snap.Validate()
	r.check("validate", err == nil, "%v", err)
	checkKernels(r, "final", v, want, sz.GraphPageRankI)
	checkEdgeLookups(r, snap.Has, want, newRNG(p.seed^0x100C), nv, sz.Checks)
	bytesPerKey := ratio(float64(g.SizeBytes()), float64(g.NumEdges()))
	var used, n float64
	for _, c := range snap.ShardSets() {
		used += float64(c.UsedBytes())
		n += float64(c.Len())
	}
	r.layerValue("cpma.used_bytes_per_key", ratio(used, n))
	g.Close()
	g, v, snap = nil, nil, nil

	// Recovery for an in-memory graph is a reload of its edge list, the
	// same call as the preload.
	dump := model.edges()
	var restored *repro.ShardedFGraph
	rec := setupReps(sz.SetupReps, func() float64 {
		t0 := time.Now()
		id := tr.begin("fgraph", "NewShardedFGraph", -1, -1)
		restored = repro.NewShardedFGraph(nv, sz.Shards, nil)
		tr.end(id, 1)
		var err error
		tr.call("fgraph", "InsertEdges", -1, -1, func() { err = restored.InsertEdges(dump) })
		tr.call("fgraph", "Flush", -1, -1, restored.Flush)
		r.ops(2)
		r.opErr("restore", err)
		return since(t0)
	}, func() { restored.Close() })
	checkKeys(r, "restore", restored.View().Snapshot().Keys(), want)
	restored.Close()
	r.report(s, setup, rec, bytesPerKey)
}

// corruptEdges adds one absent edge (0, v) in one direction to sorted
// directed keys (test hook): it breaks symmetry, the contents and the
// kernels' reference at once.
func corruptEdges(keys []uint64, nv int) []uint64 {
	for v := nv - 1; v > 0; v-- {
		k := edgeKey(0, uint32(v))
		if i, ok := slices.BinarySearch(keys, k); !ok {
			return slices.Insert(slices.Clone(keys), i, k)
		}
	}
	return keys
}

// checkEdgeLookups gates n edge lookups, half drawn from the model and
// half random vertex pairs, against the model.
func checkEdgeLookups(r *result, has func(uint64) bool, model []uint64, rg *rng, nv, n int) {
	bad := 0
	for i := 0; i < n; i++ {
		k := edgeKey(uint32(rg.intn(nv)), uint32(rg.intn(nv)))
		if i%2 == 0 && len(model) > 0 {
			k = model[rg.intn(len(model))]
		}
		_, want := slices.BinarySearch(model, k)
		if has(k) != want {
			bad++
		}
	}
	r.ops(n)
	r.check("lookups", bad == 0, "%d of %d edge lookups disagreed with the model", bad, n)
}
