package shard

import (
	"slices"
	"testing"
	"time"

	"repro/internal/workload"
)

// skewedKeys draws n power-law keys (hot keys clustered at the bottom of
// the key space — the range-partition-adversarial shape).
func skewedKeys(r *workload.RNG, n, bits int) []uint64 {
	z := workload.NewPowerLaw(r, bits, 1.1, false)
	return workload.PowerLawBatch(z, n)
}

// TestRebalanceOnceBalancesSkew: a skewed insert stream concentrates the
// keys in shard 0; one rebalance sweep must bring the max/mean key-count
// ratio under MaxSkew, keep the boundary table sorted, and change
// nothing about the set's contents.
func TestRebalanceOnceBalancesSkew(t *testing.T) {
	const P, bits = 6, 24
	s := New(P, &Options{Partition: RangePartition, KeyBits: bits, Set: smallSet})
	t.Cleanup(s.Close)
	r := workload.NewRNG(5)
	keys := skewedKeys(r, 40000, bits)
	s.InsertBatch(keys, false)
	want := append([]uint64(nil), keys...)
	slices.Sort(want)
	want = slices.Compact(want)

	before, _ := s.LoadRatio()
	if before <= s.opt.MaxSkew {
		t.Fatalf("workload not skewed enough to test: ratio %.2f", before)
	}
	moves := s.RebalanceOnce()
	if moves == 0 {
		t.Fatal("RebalanceOnce made no moves on a skewed set")
	}
	after, lens := s.LoadRatio()
	if after > s.opt.MaxSkew {
		t.Fatalf("ratio %.2f still above MaxSkew %.2f after %d moves (lens %v)", after, s.opt.MaxSkew, moves, lens)
	}
	bounds := s.Bounds()
	if len(bounds) != P-1 || !slices.IsSorted(bounds) {
		t.Fatalf("boundary table invalid after rebalance: %v", bounds)
	}
	if !slices.Equal(s.Keys(), want) {
		t.Fatal("rebalance changed the set's contents")
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	st := s.RebalanceStats()
	if st.Moves != uint64(moves) || st.MovedKeys == 0 || st.Gen != uint64(moves) {
		t.Fatalf("rebalance stats off: %+v (moves %d)", st, moves)
	}
	// Every key must still route to the shard that holds it: point reads
	// agree with membership after the handoff.
	for _, k := range want[:500] {
		if !s.Has(k) {
			t.Fatalf("Has(%d) = false after rebalance", k)
		}
	}
	// A balanced set re-sweeps to nothing.
	if again := s.RebalanceOnce(); again != 0 {
		t.Fatalf("second sweep moved %d boundaries on a balanced set", again)
	}
}

// TestRebalanceDifferential is the rebalance differential walk: scripted
// skewed insert/remove batches stream through the async pipeline with
// live boundary moves interleaved (manual sweeps at varying points), and
// after every flush the set — contents, order, Len, Sum, RangeSum,
// snapshots — must equal the sorted-slice model exactly.
func TestRebalanceDifferential(t *testing.T) {
	const P, bits, rounds = 5, 20, 40
	s := New(P, &Options{Partition: RangePartition, KeyBits: bits, MailboxDepth: 4, Set: smallSet})
	t.Cleanup(s.Close)
	r := workload.NewRNG(11)
	model := map[uint64]bool{}
	sortedModel := func() []uint64 {
		out := make([]uint64, 0, len(model))
		for k := range model {
			out = append(out, k)
		}
		slices.Sort(out)
		return out
	}
	for round := 0; round < rounds; round++ {
		// Skewed inserts, plus periodic removals of a slice of the hot
		// region so boundaries have to move back down.
		ins := skewedKeys(r, 500+r.Intn(1500), bits)
		s.InsertBatchAsync(ins, false)
		for _, k := range ins {
			model[k] = true
		}
		if round%3 == 2 {
			del := skewedKeys(r, 400, bits)
			s.RemoveBatchAsync(del, false)
			for _, k := range del {
				delete(model, k)
			}
		}
		s.Flush()
		switch round % 4 {
		case 1:
			s.RebalanceOnce()
		case 3:
			// Interleave a sweep with in-flight ingest: the next round's
			// batches race it (the monitor's behavior, deterministically).
			s.InsertBatchAsync(nil, true)
			s.RebalanceOnce()
		}
		want := sortedModel()
		if got := s.Keys(); !slices.Equal(got, want) {
			t.Fatalf("round %d: contents diverge from model (%d vs %d keys)", round, len(got), len(want))
		}
		if s.Len() != len(want) {
			t.Fatalf("round %d: Len %d, model %d", round, s.Len(), len(want))
		}
		sn := s.Snapshot()
		if !slices.Equal(sn.Keys(), want) {
			t.Fatalf("round %d: snapshot diverges from model", round)
		}
		for trial := 0; trial < 10; trial++ {
			start := r.Uint64() % (1 << bits)
			end := start + r.Uint64()%(1<<14)
			var wantSum uint64
			wantCount := 0
			for _, k := range want {
				if k >= start && k < end {
					wantSum += k
					wantCount++
				}
			}
			if gs, gc := s.RangeSum(start, end); gs != wantSum || gc != wantCount {
				t.Fatalf("round %d: RangeSum[%d,%d) = %d,%d want %d,%d", round, start, end, gs, gc, wantSum, wantCount)
			}
			if gs, gc := sn.RangeSum(start, end); gs != wantSum || gc != wantCount {
				t.Fatalf("round %d: snapshot RangeSum diverges", round)
			}
		}
		if bounds := s.Bounds(); !slices.IsSorted(bounds) {
			t.Fatalf("round %d: boundary table unsorted: %v", round, bounds)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if st := s.RebalanceStats(); st.Moves == 0 {
		t.Fatal("differential walk never rebalanced; workload not skewed enough")
	}
}

// TestBackgroundRebalancer: with Options.Rebalance set, the monitor alone
// (no manual sweeps) must pull a continuously skewed ingest stream back
// under MaxSkew.
func TestBackgroundRebalancer(t *testing.T) {
	const P, bits = 4, 22
	s := New(P, &Options{
		Partition: RangePartition, KeyBits: bits,
		Rebalance: true, RebalanceEvery: time.Millisecond, MaxSkew: 1.5,
		Set: smallSet,
	})
	t.Cleanup(s.Close)
	r := workload.NewRNG(7)
	for i := 0; i < 40; i++ {
		s.InsertBatchAsync(skewedKeys(r, 2000, bits), false)
	}
	s.Flush()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ratio, _ := s.LoadRatio()
		if ratio <= 1.5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("monitor did not rebalance: ratio %.2f after deadline", ratio)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := s.RebalanceStats(); st.Moves == 0 || st.Checks == 0 {
		t.Fatalf("monitor stats off: %+v", st)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceRequiresAsyncRange: the misuse panics promised by the API.
func TestRebalanceRequiresAsyncRange(t *testing.T) {
	if !panics(func() { New(4, &Options{Rebalance: true}) }) {
		t.Fatal("Rebalance under HashPartition must panic")
	}
	s := New(2, &Options{Partition: HashPartition})
	defer s.Close()
	if !panics(func() { s.RebalanceOnce() }) {
		t.Fatal("RebalanceOnce on a hash partition must panic")
	}
	// Closed set: a sweep is a quiet no-op (the monitor may race Close).
	c := New(2, &Options{Partition: RangePartition})
	c.Close()
	if c.RebalanceOnce() != 0 {
		t.Fatal("RebalanceOnce on a closed set must be a no-op")
	}
	// Invalid seed tables are rejected at construction.
	if !panics(func() {
		New(3, &Options{Partition: RangePartition, Bounds: []uint64{5}})
	}) {
		t.Fatal("short Bounds must panic")
	}
	if !panics(func() {
		New(3, &Options{Partition: RangePartition, Bounds: []uint64{9, 5}})
	}) {
		t.Fatal("unsorted Bounds must panic")
	}
}

// TestSeededBoundsRouting: a set seeded with an explicit boundary table
// routes by it (the persist layer restarts recovered sets this way).
func TestSeededBoundsRouting(t *testing.T) {
	s := New(3, &Options{Partition: RangePartition, KeyBits: 16, Bounds: []uint64{100, 200}})
	for k, want := range map[uint64]int{1: 0, 99: 0, 100: 1, 199: 1, 200: 2, 1 << 15: 2, ^uint64(0): 2} {
		if got := s.shardOf(k); got != want {
			t.Fatalf("shardOf(%d) = %d, want %d", k, got, want)
		}
	}
	if !slices.Equal(s.Bounds(), []uint64{100, 200}) {
		t.Fatalf("Bounds = %v", s.Bounds())
	}
}
