package cpma

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/codec"
	"repro/internal/parallel"
	"repro/internal/workload"
)

// kernelDelta draws a key gap, often one that straddles a code-length
// boundary (7, 14, 21 or 28 bits), so splices split and join deltas across
// every byte-length change.
func kernelDelta(r *rand.Rand) uint64 {
	switch r.Intn(4) {
	case 0:
		return 1 + uint64(r.Intn(8))
	case 1:
		edge := uint64(1) << (7 * (1 + r.Intn(4)))
		return edge - 3 + uint64(r.Intn(6))
	case 2:
		return 1 + uint64(r.Int63n(1<<24))
	default:
		return 1 + uint64(r.Int63n(1<<40))
	}
}

// kernelRun builds n sorted keys spaced by kernelDelta gaps.
func kernelRun(r *rand.Rand, n int) []uint64 {
	keys := make([]uint64, n)
	v := kernelDelta(r)
	for i := range keys {
		keys[i] = v
		v += kernelDelta(r)
	}
	return keys
}

// kernelBatch draws a sorted, duplicate-free batch around keys: present
// keys, near misses on either side, keys below the head and above the max.
func kernelBatch(r *rand.Rand, keys []uint64, n int) []uint64 {
	var out []uint64
	for len(out) < n {
		var x uint64
		switch k := r.Intn(5); {
		case k == 0 && len(keys) > 0:
			x = keys[r.Intn(len(keys))]
		case k == 1 && len(keys) > 0:
			x = keys[r.Intn(len(keys))] + kernelDelta(r)
		case k == 2 && len(keys) > 0:
			x = keys[r.Intn(len(keys))] - kernelDelta(r)
		case k == 3 && len(keys) > 0:
			x = keys[len(keys)-1] + kernelDelta(r)
		default:
			x = 1 + uint64(r.Int63n(1<<41))
		}
		if x != 0 && x < 1<<62 {
			out = append(out, x)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func encoded(keys []uint64) []byte {
	buf := make([]byte, codec.SizeOfRun(keys))
	if len(keys) > 0 {
		codec.EncodeRun(buf, keys)
	}
	return buf
}

func setDiff(a, b []uint64) []uint64 {
	var out []uint64
	for _, v := range a {
		if _, ok := slices.BinarySearch(b, v); !ok {
			out = append(out, v)
		}
	}
	return out
}

// checkMergeKernel runs mergeRun on the encoding of keys and compares it
// byte for byte with EncodeRun(MergeDedup(keys, sub)).
func checkMergeKernel(t *testing.T, keys, sub []uint64) {
	t.Helper()
	src := encoded(keys)
	srcCopy := bytes.Clone(src)
	want, fresh := parallel.MergeDedup(keys, sub)
	dst := make([]byte, mergeBound(len(src), sub))
	w, gotFresh := mergeRun(dst, src, len(src), sub)
	if gotFresh != fresh {
		t.Fatalf("merge %v into %v: fresh %d, want %d", sub, keys, gotFresh, fresh)
	}
	if !bytes.Equal(src, srcCopy) {
		t.Fatalf("merge %v into %v: source run modified", sub, keys)
	}
	if fresh == 0 {
		return
	}
	if wantBytes := encoded(want); !bytes.Equal(dst[:w], wantBytes) {
		t.Fatalf("merge %v into %v:\n got % x\nwant % x", sub, keys, dst[:w], wantBytes)
	}
}

// checkRemoveKernel runs removeRun in place on the encoding of keys (with
// slack past used, as in a slab) and compares it with the encoding of the
// set difference; the freed bytes must be zero and a removal that deletes
// nothing must not ask for a writable slab.
func checkRemoveKernel(t *testing.T, keys, sub []uint64) {
	t.Helper()
	enc := encoded(keys)
	slab := make([]byte, len(enc)+16)
	copy(slab, enc)
	want := setDiff(keys, sub)
	calls := 0
	w, dropped := removeRun(slab, len(enc), sub, func() []byte { calls++; return slab })
	if dropped != len(keys)-len(want) {
		t.Fatalf("remove %v from %v: dropped %d, want %d", sub, keys, dropped, len(keys)-len(want))
	}
	if dropped == 0 {
		if calls != 0 || w != len(enc) || !bytes.Equal(slab[:len(enc)], enc) {
			t.Fatalf("remove %v from %v: deleted nothing but wrote (calls=%d, used %d→%d)", sub, keys, calls, len(enc), w)
		}
		return
	}
	if calls != 1 {
		t.Fatalf("remove %v from %v: writable called %d times", sub, keys, calls)
	}
	wantBytes := encoded(want)
	if !bytes.Equal(slab[:w], wantBytes) {
		t.Fatalf("remove %v from %v:\n got % x\nwant % x", sub, keys, slab[:w], wantBytes)
	}
	for i := w; i < len(slab); i++ {
		if slab[i] != 0 {
			t.Fatalf("remove %v from %v: byte %d past used %d not cleared", sub, keys, i, w)
		}
	}
}

// TestSpliceKernelsMatchReference checks the splice kernels against the
// decode/merge/re-encode reference on named edge cases and random leaves.
func TestSpliceKernelsMatchReference(t *testing.T) {
	base := []uint64{1000, 1000 + 127, 1000 + 127 + 128, 1000 + 255 + 16383, 1000 + 255 + 16383 + 16384,
		1000 + 255 + 32767 + 1<<21 - 1, 1000 + 255 + 32767 + 1<<21 - 1 + 1<<21}
	last := base[len(base)-1]
	cases := []struct {
		name string
		keys []uint64
		sub  []uint64
	}{
		{"empty leaf", nil, []uint64{5, 6, 300}},
		{"all below head", base, []uint64{1, 2, 999}},
		{"all above max", base, []uint64{last + 1, last + 200, last + 1<<30}},
		{"head only", base, []uint64{1000}},
		{"head and successor", base, base[:2]},
		{"every key", base, base},
		{"max only", base, []uint64{last}},
		{"duplicates and new", base, []uint64{base[1], base[1] + 1, base[3], base[5] + 7}},
		// Splitting a 2-byte delta of 128 into 1 + 127 keeps the size; the
		// reverse join on removal shrinks nothing.
		{"split across 7 bits", base, []uint64{base[1] + 1}},
		{"split across 14 bits", base, []uint64{base[2] + 1, base[3] - 1}},
		{"split across 21 bits", base, []uint64{base[4] + 1<<14, base[5] - 1}},
		{"single key leaf", []uint64{77}, []uint64{3, 77, 1 << 40}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkMergeKernel(t, tc.keys, tc.sub)
			checkRemoveKernel(t, tc.keys, tc.sub)
			if len(tc.keys) > 0 {
				// The same batch, but every key of it present.
				merged, _ := parallel.MergeDedup(tc.keys, tc.sub)
				checkRemoveKernel(t, merged, tc.sub)
				checkMergeKernel(t, merged, tc.sub)
			}
		})
	}
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 20000; i++ {
		keys := kernelRun(r, r.Intn(120))
		sub := kernelBatch(r, keys, 1+r.Intn(12))
		checkMergeKernel(t, keys, sub)
		checkRemoveKernel(t, keys, sub)
	}
}

// TestSpliceLeafMetadata drives mergeLeaf and removeLeaf on real leaves —
// including merges that overflow the leaf — and checks slab bytes, used,
// ecnt and the encoded overflow against the reference encoding.
func TestSpliceLeafMetadata(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	opts := &Options{LeafBytes: 256}
	overflows := 0
	for round := 0; round < 300; round++ {
		c := FromSorted(kernelRun(r, 2000), opts)
		leaf := r.Intn(c.Leaves())
		for c.usedOf(leaf) == 0 {
			leaf = (leaf + 1) % c.Leaves()
		}
		cur := codec.DecodeRun(nil, c.leafData(leaf), c.usedOf(leaf))
		// Keys routed to this leaf: at or above its head and below the next
		// head (or, for the first non-empty leaf, anything below that).
		lo := cur[0]
		if leaf == c.firstNonEmptyIn(0, c.leaves-1) {
			lo = 1
		}
		hi := c.nextHeadIn(leaf, c.leaves-1)
		var sub []uint64
		for _, x := range kernelBatch(r, cur, 1+r.Intn(60)) {
			if x >= lo && x < hi {
				sub = append(sub, x)
			}
		}
		before := bytes.Clone(c.leafData(leaf))
		c.overflow = make([][]byte, c.leaves)
		dirty := parallel.NewBitset(c.leaves)
		want, fresh := parallel.MergeDedup(cur, sub)
		if got := c.mergeLeaf(leaf, sub, dirty, &c.scratch); got != fresh {
			t.Fatalf("round %d: mergeLeaf added %d, want %d", round, got, fresh)
		}
		wantBytes := encoded(want)
		if c.ecntOf(leaf) != len(want) || c.usedOf(leaf) != len(wantBytes) {
			t.Fatalf("round %d: used/ecnt %d/%d, want %d/%d", round, c.usedOf(leaf), c.ecntOf(leaf), len(wantBytes), len(want))
		}
		if fresh == 0 && dirty.Get(leaf) {
			t.Fatalf("round %d: merge of present keys dirtied the leaf", round)
		}
		if len(wantBytes) > c.LeafBytes() {
			overflows++
			if !bytes.Equal(c.overflow[leaf], wantBytes) {
				t.Fatalf("round %d: overflow bytes differ from the reference encoding", round)
			}
			if !bytes.Equal(c.leafData(leaf), before) {
				t.Fatalf("round %d: overflowing merge wrote the slab", round)
			}
			c.n += fresh
			c.applyPlan(c.tree.Count(c.usedOf, dirty.Indices(), true, false))
			if err := c.Validate(); err != nil {
				t.Fatalf("round %d: after overflow redistribution: %v", round, err)
			}
			continue
		}
		ld := c.leafData(leaf)
		if !bytes.Equal(ld[:len(wantBytes)], wantBytes) || !slices.Equal(ld[len(wantBytes):], make([]byte, len(ld)-len(wantBytes))) {
			t.Fatalf("round %d: merged slab differs from the reference encoding", round)
		}
		c.n += fresh

		// Remove a batch drawn from the merged leaf the same way.
		sub = sub[:0]
		for _, x := range kernelBatch(r, want, 1+r.Intn(60)) {
			if x >= lo && x < hi {
				sub = append(sub, x)
			}
		}
		left := setDiff(want, sub)
		if got := c.removeLeaf(leaf, sub, nil); got != len(want)-len(left) {
			t.Fatalf("round %d: removeLeaf deleted %d, want %d", round, got, len(want)-len(left))
		}
		wantBytes = encoded(left)
		ld = c.leafData(leaf)
		if c.ecntOf(leaf) != len(left) || c.usedOf(leaf) != len(wantBytes) || !bytes.Equal(ld[:len(wantBytes)], wantBytes) {
			t.Fatalf("round %d: removed leaf differs from the reference (used %d ecnt %d, want %d %d)",
				round, c.usedOf(leaf), c.ecntOf(leaf), len(wantBytes), len(left))
		}
		c.n -= len(want) - len(left)
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if overflows == 0 {
		t.Fatal("no merge overflowed its leaf; the overflow path went untested")
	}
}

// TestNoOpEditsWriteNothing pins that an edit that gains or loses no key
// neither unshares, rewrites nor dirties a leaf: after a Clone, inserting
// present keys and removing absent ones — as batches and as point ops —
// leaves the next Clone with an empty dirty window and no slab copies.
func TestNoOpEditsWriteNothing(t *testing.T) {
	keys := workload.Uniform(workload.NewRNG(3), 100_000, 40)
	c := New(nil)
	c.InsertBatch(keys, false)
	c.Clone()
	baseline := c.Clone().CloneCost() // spine overhead only: nothing changed

	present := append([]uint64(nil), keys[:1000]...)
	var absent []uint64
	for r := workload.NewRNG(4); len(absent) < 1000; {
		if x := 1 + r.Uint64()%(1<<40); !c.Has(x) {
			absent = append(absent, x)
		}
	}
	if got := c.InsertBatch(present, false); got != 0 {
		t.Fatalf("InsertBatch of present keys added %d", got)
	}
	if got := c.RemoveBatch(absent, false); got != 0 {
		t.Fatalf("RemoveBatch of absent keys removed %d", got)
	}
	if c.Insert(present[0]) {
		t.Fatal("Insert of a present key reported new")
	}
	if c.Remove(absent[0]) {
		t.Fatal("Remove of an absent key reported present")
	}
	snap := c.Clone()
	all, dirty := snap.DirtySince()
	if all || dirty == nil || dirty.Count() != 0 {
		n := -1
		if dirty != nil {
			n = dirty.Count()
		}
		t.Fatalf("no-op edits dirtied leaves (all=%v, %d dirty)", all, n)
	}
	if snap.CloneCost() != baseline {
		t.Fatalf("no-op edits copied slab bytes: clone cost %d, want %d", snap.CloneCost(), baseline)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchUpdatesAllocatePerFork pins that batch merges and removals do not
// allocate per touched leaf: a 1e4-key batch into 1e6 keys touches
// thousands of leaves, but the batch's allocations (sort, bitsets, plan,
// redistribution buffers and per-fork scratch) stay far below that.
func TestBatchUpdatesAllocatePerFork(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1e6-key set")
	}
	const bound = 1000
	r := workload.NewRNG(9)
	c := FromSorted(sortedUnique(workload.Uniform(r, 1_000_000, 40)), nil)
	batches := make([][]uint64, 6)
	for i := range batches {
		batches[i] = workload.Uniform(r, 10_000, 40)
		slices.Sort(batches[i])
	}
	i := 0
	ins := testing.AllocsPerRun(len(batches)-1, func() {
		c.InsertBatch(batches[i], true)
		i++
	})
	i = 0
	rem := testing.AllocsPerRun(len(batches)-1, func() {
		c.RemoveBatch(batches[i], true)
		i++
	})
	t.Logf("allocs per 1e4-key batch into 1e6 keys (%d leaves): insert %.0f, remove %.0f", c.Leaves(), ins, rem)
	if ins > bound || rem > bound {
		t.Fatalf("allocs per batch: insert %.0f, remove %.0f, want <= %d", ins, rem, bound)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func sortedUnique(keys []uint64) []uint64 {
	out := slices.Clone(keys)
	slices.Sort(out)
	return slices.Compact(out)
}
