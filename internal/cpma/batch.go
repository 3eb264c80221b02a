package cpma

import (
	"sort"

	"repro/internal/parallel"
)

// The batch-update algorithm below is identical to the uncompressed PMA's
// (paper §5: "the batch-update algorithm in the CPMA is identical to the
// batch-update algorithm for PMAs described in Section 4") — only the
// per-leaf merge and the redistribution work on byte codes. Its three
// phases (Figure 4):
//
//  1. Merge. A parallel recursion splits the sorted batch at leaf heads and
//     hands each leaf its run, which the splice kernels of leaf.go edit in
//     one pass over the leaf's byte codes. A merge that outgrows its leaf
//     keeps its encoded bytes in c.overflow, and the leaf's used size
//     records the overflowed size; the slab itself is left as it was.
//  2. Count. pmatree.Count walks up from the touched leaves, summing used
//     bytes, and plans the regions whose byte density is out of bounds.
//  3. Redistribute. Each planned region is decoded (overflowed leaves from
//     their overflow, with the same DecodeRun) and re-encoded evenly across
//     its leaves, which clears the overflow.
//
// A leaf the batch does not change — every key to insert already present,
// or every key to delete absent — is neither written nor counted.

const mergeForkGrain = 2048

// InsertBatch inserts a batch of keys, returning how many were new. If
// sorted is false the batch is sorted in a copy first; duplicates within
// the batch are removed either way.
func (c *CPMA) InsertBatch(keys []uint64, sorted bool) int {
	batch := c.prepareBatch(keys, sorted)
	if len(batch) == 0 {
		return 0
	}
	switch {
	case c.n == 0:
		c.rebuildFrom(batch)
		return len(batch)
	case len(batch) <= c.opt.PointThreshold:
		added := 0
		for _, x := range batch {
			if c.Insert(x) {
				added++
			}
		}
		return added
	case float64(len(batch)) >= c.opt.RebuildFraction*float64(c.n):
		return c.rebuildMerge(batch)
	default:
		return c.batchMerge(batch)
	}
}

// RemoveBatch removes a batch of keys, returning how many were present.
func (c *CPMA) RemoveBatch(keys []uint64, sorted bool) int {
	batch := c.prepareBatch(keys, sorted)
	if len(batch) == 0 || c.n == 0 {
		return 0
	}
	if len(batch) <= c.opt.PointThreshold {
		removed := 0
		for _, x := range batch {
			if c.Remove(x) {
				removed++
			}
		}
		return removed
	}
	dirty := parallel.NewBitset(c.leaves)
	removed := c.removeRange(batch, 0, c.leaves-1, dirty)
	c.n -= removed
	if c.Capacity() > minCapacity {
		plan := c.tree.Count(c.usedOf, dirty.Indices(), false, true)
		c.applyPlan(plan)
	}
	return removed
}

func (c *CPMA) prepareBatch(keys []uint64, sorted bool) []uint64 {
	if len(keys) == 0 {
		return nil
	}
	var batch []uint64
	if sorted {
		batch = parallel.DedupSorted(keys)
	} else {
		batch = parallel.DedupSorted(parallel.SortedCopy(keys))
	}
	if len(batch) > 0 && batch[0] == 0 {
		panic("cpma: key 0 is reserved")
	}
	return batch
}

func (c *CPMA) batchMerge(batch []uint64) int {
	if c.overflow == nil {
		c.overflow = make([][]byte, c.leaves)
	}
	dirty := parallel.NewBitset(c.leaves)
	added := c.mergeRange(batch, 0, c.leaves-1, dirty, &c.scratch)
	c.n += added

	plan := c.tree.Count(c.usedOf, dirty.Indices(), true, false)
	c.applyPlan(plan)
	return added
}

func (c *CPMA) rebuildMerge(batch []uint64) int {
	all := c.gatherElems(0, c.leaves)
	merged, fresh := parallel.MergeDedup(all, batch)
	if fresh > 0 {
		c.rebuildFrom(merged)
	}
	return fresh
}

// mergeRange mirrors pma.mergeRange; see that implementation for the
// leaf-range ownership argument that makes the recursion lock-free. It
// returns how many keys of batch were new. s is the calling goroutine's
// scratch; each forked goroutine starts its own.
func (c *CPMA) mergeRange(batch []uint64, loLeaf, hiLeaf int, dirty *parallel.Bitset, s *scratch) int {
	if len(batch) == 0 {
		return 0
	}
	if loLeaf > hiLeaf {
		panic("cpma: batch elements with no target leaf range")
	}
	mid := batch[len(batch)/2]
	leaf := c.leafForIn(mid, loLeaf, hiLeaf)
	var lo, hi int
	if leaf == -1 {
		first := c.firstNonEmptyIn(loLeaf, hiLeaf)
		if first == -1 {
			return c.mergeLeaf((loLeaf+hiLeaf)/2, batch, dirty, s)
		}
		leaf = first
		lo = 0
	} else if leaf == loLeaf {
		// No room to recurse left: elements below this head belong at the
		// front of the range's first leaf.
		lo = 0
	} else {
		h := c.head(leaf)
		lo = sort.Search(len(batch), func(i int) bool { return batch[i] >= h })
	}
	upper := c.nextHeadIn(leaf, hiLeaf)
	hi = lo + sort.Search(len(batch)-lo, func(i int) bool { return batch[lo+i] >= upper })

	sub, left, right := batch[lo:hi], batch[:lo], batch[hi:]
	if len(batch) <= mergeForkGrain {
		return c.mergeLeaf(leaf, sub, dirty, s) +
			c.mergeRange(left, loLeaf, leaf-1, dirty, s) +
			c.mergeRange(right, leaf+1, hiLeaf, dirty, s)
	}
	var a, b, d int
	parallel.Do3(
		func() { a = c.mergeLeaf(leaf, sub, dirty, s) },
		func() { b = c.mergeRange(left, loLeaf, leaf-1, dirty, new(scratch)) },
		func() { d = c.mergeRange(right, leaf+1, hiLeaf, dirty, new(scratch)) },
	)
	return a + b + d
}

// mergeLeaf merges a sorted batch run into a leaf with the splice kernel
// and returns how many keys were new. A merge that fits is copied back
// into the slab; one that does not stays encoded in the leaf's overflow,
// its size recorded for the counting phase (Figure 4), which then
// redistributes the region. A merge that adds nothing writes nothing.
// dirty (the batch's touched-leaf set) is nil for point inserts, which
// always fit (Insert keeps MaxGrowth bytes of slack).
func (c *CPMA) mergeLeaf(leaf int, sub []uint64, dirty *parallel.Bitset, s *scratch) int {
	if len(sub) == 0 {
		return 0
	}
	u := c.usedOf(leaf)
	dst := s.get(mergeBound(u, sub))
	w, fresh := mergeRun(dst, c.leafData(leaf), u, sub)
	if fresh == 0 {
		return 0
	}
	if w <= c.LeafBytes() {
		// Bytes past the old used size are already zero, and w only grew.
		copy(c.leafDataW(leaf), dst[:w])
	} else {
		// Overflow: the slab is untouched, so only the metadata changes —
		// no unshare needed.
		c.overflow[leaf] = append([]byte(nil), dst[:w]...)
	}
	c.setLeafMeta(leaf, int32(w), int32(c.ecntOf(leaf)+fresh))
	if dirty != nil {
		dirty.Set(leaf)
	}
	return fresh
}

func (c *CPMA) removeRange(batch []uint64, loLeaf, hiLeaf int, dirty *parallel.Bitset) int {
	if len(batch) == 0 || loLeaf > hiLeaf {
		return 0
	}
	mid := batch[len(batch)/2]
	leaf := c.leafForIn(mid, loLeaf, hiLeaf)
	var lo, hi int
	if leaf == -1 {
		first := c.firstNonEmptyIn(loLeaf, hiLeaf)
		if first == -1 {
			return 0
		}
		leaf = first
		lo = 0
	} else if leaf == loLeaf {
		lo = 0
	} else {
		h := c.head(leaf)
		lo = sort.Search(len(batch), func(i int) bool { return batch[i] >= h })
	}
	upper := c.nextHeadIn(leaf, hiLeaf)
	hi = lo + sort.Search(len(batch)-lo, func(i int) bool { return batch[lo+i] >= upper })

	sub, left, right := batch[lo:hi], batch[:lo], batch[hi:]
	if len(batch) <= mergeForkGrain {
		return c.removeLeaf(leaf, sub, dirty) +
			c.removeRange(left, loLeaf, leaf-1, dirty) +
			c.removeRange(right, leaf+1, hiLeaf, dirty)
	}
	var a, b, d int
	parallel.Do3(
		func() { a = c.removeLeaf(leaf, sub, dirty) },
		func() { b = c.removeRange(left, loLeaf, leaf-1, dirty) },
		func() { d = c.removeRange(right, leaf+1, hiLeaf, dirty) },
	)
	return a + b + d
}

// removeLeaf deletes the keys of sub present in the leaf with the in-place
// splice kernel and returns how many it deleted. The slab is unshared only
// once a key is actually found; a removal that deletes nothing writes
// nothing. dirty may be nil for point removes.
func (c *CPMA) removeLeaf(leaf int, sub []uint64, dirty *parallel.Bitset) int {
	w, dropped := removeRun(c.leafData(leaf), c.usedOf(leaf), sub, func() []byte { return c.leafDataW(leaf) })
	if dropped == 0 {
		return 0
	}
	c.setLeafMeta(leaf, int32(w), int32(c.ecntOf(leaf)-dropped))
	if dirty != nil {
		dirty.Set(leaf)
	}
	return dropped
}
