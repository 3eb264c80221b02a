package cpma

import "repro/internal/parallel"

// Map applies f to every key in ascending order, stopping early when f
// returns false; reports whether the scan completed.
func (c *CPMA) Map(f func(uint64) bool) bool {
	for leaf := 0; leaf < c.leaves; leaf++ {
		if !c.leafIter(leaf, f) {
			return false
		}
	}
	return true
}

// ParallelMap applies f to every key with leaf-level parallelism; ordering
// is guaranteed only within a leaf. f must be safe for concurrent calls.
func (c *CPMA) ParallelMap(f func(uint64)) {
	forLeaves(c.leaves, func(leaf int) {
		c.leafIter(leaf, func(v uint64) bool { f(v); return true })
	})
}

// MapRange applies f to keys in [start, end) in ascending order — one
// search, then a contiguous decode (paper's range_map). Stops early when f
// returns false.
func (c *CPMA) MapRange(start, end uint64, f func(uint64) bool) bool {
	if c.n == 0 || start >= end {
		return true
	}
	leaf := c.findLeaf(start)
	for ; leaf < c.leaves; leaf++ {
		done := false
		if !c.leafIter(leaf, func(v uint64) bool {
			if v < start {
				return true
			}
			if v >= end {
				done = true
				return false
			}
			return f(v)
		}) && !done {
			return false
		}
		if done {
			return true
		}
	}
	return true
}

// MapRangeLength applies f to at most length keys starting from the first
// key >= start; returns the number visited.
func (c *CPMA) MapRangeLength(start uint64, length int, f func(uint64) bool) int {
	if c.n == 0 || length <= 0 {
		return 0
	}
	visited := 0
	stop := false
	leaf := c.findLeaf(start)
	for ; leaf < c.leaves && !stop; leaf++ {
		c.leafIter(leaf, func(v uint64) bool {
			if v < start {
				return true
			}
			if visited == length || !f(v) {
				stop = true
				return false
			}
			visited++
			return true
		})
	}
	return visited
}

// LeafMap applies f to the keys of one leaf in ascending order until f
// returns false, reporting whether the whole leaf was visited. Combined
// with Leaves it gives clients (notably F-Graph's vertex-index builder)
// leaf-granular parallel access to the flat layout.
func (c *CPMA) LeafMap(leaf int, f func(uint64) bool) bool {
	return c.leafIter(leaf, f)
}

// LeafLen returns the number of keys stored in one leaf.
func (c *CPMA) LeafLen(leaf int) int { return c.ecntOf(leaf) }

// Sum returns the sum (mod 2^64) of all keys with leaf-level parallelism,
// a few tasks per processor (the default grain).
func (c *CPMA) Sum() uint64 {
	return parallel.ReduceSum(c.leaves, 0, c.leafSum)
}

// RangeSum sums keys in [start, end).
func (c *CPMA) RangeSum(start, end uint64) (sum uint64, count int) {
	c.MapRange(start, end, func(v uint64) bool {
		sum += v
		count++
		return true
	})
	return sum, count
}

// Keys returns all keys in ascending order; primarily for tests.
func (c *CPMA) Keys() []uint64 {
	out := make([]uint64, 0, c.n)
	c.Map(func(v uint64) bool {
		out = append(out, v)
		return true
	})
	return out
}
