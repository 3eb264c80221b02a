package workload

// EdgeStream generates the streaming-graph workload: an unbounded,
// deterministic sequence of R-MAT edge batches interleaved with delete
// batches drawn from edges the stream previously inserted. Deletes are
// reservoir-sampled from a bounded window of past inserts, so they hit
// real (likely-present) edges without the generator retaining the whole
// history; sampling removes the entry from the reservoir. R-MAT repeats
// edges, so a delete can still name an edge a later insert re-added or an
// earlier delete already removed — harmless under set semantics, and the
// differential model replays the same sequence.
//
// The stream is symmetric, the way the paper's graphs are (Symmetrize):
// every insert and every delete batch carries both directions of each
// undirected edge it names, so the graph the stream builds is symmetric
// after every batch. The graph kernels require that — dense EdgeMap pulls
// out-neighbors as in-neighbors, and label-propagation CC on an
// asymmetric graph depends on the thread schedule. Self-loops are
// redrawn, as Symmetrize drops them.
//
// Every batch is a function of the seed alone — two streams with the same
// parameters emit identical batch sequences — which is what lets the
// differential harness replay one stream into both F-Graph flavors and a
// model and demand byte-identical results. Because self-loops are
// redrawn, the stream never emits the edge (0,0), which packs to the
// reserved key 0 that the sharded graph cannot store
// (fgraph.ErrEdgeZeroZero) — one rule for every consumer instead of a
// filter in each.
type EdgeStream struct {
	r     *RNG
	scale int
	p     RMATParams
	// deleteFrac of each requested batch size is emitted as deletes (once
	// the reservoir has something to delete).
	deleteFrac float64

	reservoir []Edge // undirected edges, one direction each
	seen      uint64 // undirected inserts observed by the reservoir so far
}

// reservoirCap bounds the delete-candidate memory regardless of stream
// length.
const reservoirCap = 1 << 16

// NewEdgeStream returns a deterministic stream of R-MAT(scale) batches with
// the default paper parameters. deleteFrac in [0,1) is the fraction of each
// batch emitted as deletions of previously inserted edges; 0 disables
// deletes.
func NewEdgeStream(seed uint64, scale int, deleteFrac float64) *EdgeStream {
	if deleteFrac < 0 {
		deleteFrac = 0
	}
	if deleteFrac >= 1 {
		deleteFrac = 0.5
	}
	return &EdgeStream{
		r:          NewRNG(seed),
		scale:      scale,
		p:          DefaultRMAT(),
		deleteFrac: deleteFrac,
	}
}

// NumVertices returns the vertex-id space the stream draws from.
func (s *EdgeStream) NumVertices() int { return 1 << s.scale }

// Next returns the stream's next batch: n new directed edges to insert (n
// rounded up to even: both directions of n/2 undirected R-MAT edges) and
// both directions of about n*deleteFrac/2 previously inserted undirected
// edges to delete (fewer while the reservoir is warming up, nil when
// deletes are disabled). Each undirected edge occupies two adjacent
// entries, forward then reverse. The caller applies deletes after
// inserts, or in any order — the differential model just has to match.
// Slices are freshly allocated each call.
func (s *EdgeStream) Next(n int) (inserts, deletes []Edge) {
	pairs := (n + 1) / 2
	inserts = make([]Edge, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		e := rmatOne(s.r, s.scale, s.p)
		for e.Src == e.Dst {
			e = rmatOne(s.r, s.scale, s.p)
		}
		inserts = append(inserts, e, Edge{Src: e.Dst, Dst: e.Src})
	}
	nd := int(float64(n)*s.deleteFrac) / 2
	if nd > len(s.reservoir) {
		nd = len(s.reservoir)
	}
	for i := 0; i < nd; i++ {
		j := s.r.Intn(len(s.reservoir))
		e := s.reservoir[j]
		deletes = append(deletes, e, Edge{Src: e.Dst, Dst: e.Src})
		last := len(s.reservoir) - 1
		s.reservoir[j] = s.reservoir[last]
		s.reservoir = s.reservoir[:last]
	}
	for i := 0; i < len(inserts); i += 2 {
		e := inserts[i]
		s.seen++
		if len(s.reservoir) < reservoirCap {
			s.reservoir = append(s.reservoir, e)
		} else if j := s.r.Uint64() % s.seen; j < reservoirCap {
			s.reservoir[j] = e
		}
	}
	return inserts, deletes
}
