package fgraph

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"repro/internal/cpma"
	"repro/internal/graph"
	"repro/internal/workload"
)

// kernelBytes runs BFS, PageRank, CC and BC on g and serializes every
// result vector, floats by their bit patterns.
func kernelBytes(g graph.Graph) []byte {
	var b bytes.Buffer
	for _, d := range graph.BFS(g, 0) {
		binary.Write(&b, binary.LittleEndian, d)
	}
	for _, r := range graph.PageRank(g, 10) {
		binary.Write(&b, binary.LittleEndian, math.Float64bits(r))
	}
	for _, l := range graph.ConnectedComponents(g) {
		binary.Write(&b, binary.LittleEndian, l)
	}
	for _, c := range graph.BC(g, 0) {
		binary.Write(&b, binary.LittleEndian, math.Float64bits(c))
	}
	return b.Bytes()
}

// TestKernelDeterminism runs BFS, PageRank, CC and BC repeatedly on the
// single-CPMA Graph and on a sharded View, over an asymmetric and a
// symmetric graph, and requires bytewise-equal results on every run: at
// the ambient GOMAXPROCS, serially, and several times at GOMAXPROCS=4.
// The graphs are dense (256 vertices, about 400 random out-edges each)
// and the leaves small, so nearly every vertex's run spans several leaves
// and most task boundaries of a parallel scan cut through a run: a kernel
// that summed a run's floats in task-completion order fails here.
func TestKernelDeterminism(t *testing.T) {
	const nv = 256
	opts := &cpma.Options{LeafBytes: 256}
	r := workload.NewRNG(21)
	var asym []workload.Edge
	for len(asym) < 100_000 {
		e := workload.Edge{Src: uint32(r.Uint64() % nv), Dst: uint32(r.Uint64() % nv)}
		if e.Src != e.Dst { // (0,0) packs to the reserved key
			asym = append(asym, e)
		}
	}
	graphs := []struct {
		name  string
		edges []workload.Edge
	}{
		{"asymmetric", asym},
		{"symmetric", workload.Symmetrize(asym)},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	procs := []int{runtime.GOMAXPROCS(0), 1, 4, 4, 4, 4}
	for _, gc := range graphs {
		single := FromEdges(nv, gc.edges, opts)
		single.EnsureIndex()
		sh := NewSharded(nv, 4, &ShardedOptions{Set: opts})
		for i := 0; i < len(gc.edges); i += 5000 {
			if err := sh.InsertEdges(gc.edges[i:min(i+5000, len(gc.edges))]); err != nil {
				t.Fatal(err)
			}
		}
		sh.Flush()
		view := sh.View()
		for _, sut := range []struct {
			name string
			g    graph.Graph
		}{{"graph", single}, {"view", view}} {
			var ref []byte
			for run, p := range procs {
				runtime.GOMAXPROCS(p)
				got := kernelBytes(sut.g)
				if run == 0 {
					ref = got
					continue
				}
				if !bytes.Equal(got, ref) {
					t.Fatalf("%s %s: run %d at GOMAXPROCS=%d differs from run 0 at GOMAXPROCS=%d",
						gc.name, sut.name, run, p, procs[0])
				}
			}
		}
		sh.Close()
	}
}
