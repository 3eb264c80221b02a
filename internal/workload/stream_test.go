package workload

import "testing"

func TestEdgeStreamDeterministic(t *testing.T) {
	a := NewEdgeStream(7, 10, 0.25)
	b := NewEdgeStream(7, 10, 0.25)
	for round := 0; round < 20; round++ {
		ia, da := a.Next(500)
		ib, db := b.Next(500)
		if len(ia) != len(ib) || len(da) != len(db) {
			t.Fatalf("round %d: batch sizes diverge", round)
		}
		for i := range ia {
			if ia[i] != ib[i] {
				t.Fatalf("round %d: insert %d diverges", round, i)
			}
		}
		for i := range da {
			if da[i] != db[i] {
				t.Fatalf("round %d: delete %d diverges", round, i)
			}
		}
	}
}

func TestEdgeStreamDeletesComeFromInserts(t *testing.T) {
	s := NewEdgeStream(11, 9, 0.3)
	inserted := map[Edge]bool{}
	sawDelete := false
	for round := 0; round < 30; round++ {
		ins, del := s.Next(400)
		if len(ins) != 400 {
			t.Fatalf("round %d: %d inserts", round, len(ins))
		}
		for _, e := range del {
			if !inserted[e] {
				t.Fatalf("round %d: delete %v never inserted", round, e)
			}
			sawDelete = true
		}
		for _, e := range ins {
			inserted[e] = true
		}
		nv := s.NumVertices()
		for _, e := range ins {
			if int(e.Src) >= nv || int(e.Dst) >= nv {
				t.Fatalf("edge %v out of vertex range %d", e, nv)
			}
		}
	}
	if !sawDelete {
		t.Fatal("stream with deleteFrac 0.3 emitted no deletes")
	}
}

func TestEdgeStreamNoDeletes(t *testing.T) {
	s := NewEdgeStream(3, 8, 0)
	for round := 0; round < 5; round++ {
		_, del := s.Next(100)
		if del != nil {
			t.Fatalf("round %d: unexpected deletes", round)
		}
	}
}

// TestEdgeStreamBatchesSymmetric: every insert and every delete batch
// carries both directions of each edge it names, and never a self-loop
// (so never the unstorable edge (0,0)) — the graph the stream builds is
// symmetric after every batch, whatever order the batches apply in.
func TestEdgeStreamBatchesSymmetric(t *testing.T) {
	s := NewEdgeStream(5, 8, 0.3)
	sawDelete := false
	for round := 0; round < 40; round++ {
		ins, del := s.Next(301)
		if len(ins) != 302 {
			t.Fatalf("round %d: %d inserts, want 302 (n rounded up to even)", round, len(ins))
		}
		for name, batch := range map[string][]Edge{"insert": ins, "delete": del} {
			count := map[Edge]int{}
			for _, e := range batch {
				if e.Src == e.Dst {
					t.Fatalf("round %d: %s batch holds self-loop %v", round, name, e)
				}
				count[e]++
			}
			for e, n := range count {
				if r := (Edge{Src: e.Dst, Dst: e.Src}); count[r] != n {
					t.Fatalf("round %d: %s batch holds %v %d times but %v %d times", round, name, e, n, r, count[r])
				}
			}
		}
		sawDelete = sawDelete || len(del) > 0
	}
	if !sawDelete {
		t.Fatal("stream with deleteFrac 0.3 emitted no deletes")
	}
}
