package cpma

import "repro/internal/codec"

// This file holds the leaf operations of §5. Every mutation of a compressed
// leaf is one forward walk over its byte codes by one of two splice
// kernels, shared by the point and the batch paths:
//
//   - mergeRun merges a sorted run of keys into a leaf. It decodes only as
//     far as the last new key, re-encodes only the deltas around inserted
//     keys, and copies every untouched code — and the whole tail past the
//     last new key — verbatim into a scratch buffer. The result is copied
//     back into the leaf when it fits; otherwise it stays encoded, out of
//     place, as the leaf's overflow until the counting phase redistributes
//     it (batch.go).
//   - removeRun deletes a sorted run of keys from a leaf in place. Merging
//     two neighboring deltas never grows the code (Len(d1+d2) <=
//     Len(d1)+Len(d2)), so the write offset never overtakes the read
//     offset.
//
// Both kernels emit the canonical encoding — the bytes EncodeRun would
// write for the resulting key set — and an edit that changes no key writes
// nothing: the slab is neither unshared nor dirtied.

// scratch is a reusable output buffer for mergeRun. One serial chain of
// leaf merges (a point insert, or one goroutine's share of the batch
// recursion) reuses one scratch, so merges allocate per fork, not per leaf.
type scratch struct{ buf []byte }

// scratchMin sizes a fresh scratch to hold a full maximum-size leaf plus
// its insertions, so it rarely regrows.
const scratchMin = 2 * maxLeafBytes

func (s *scratch) get(n int) []byte {
	if cap(s.buf) < n {
		s.buf = make([]byte, max(n, scratchMin))
	}
	return s.buf[:n]
}

// mergeBound bounds the merged encoding of a used-byte run and sub: in the
// union every key's predecessor is at least its predecessor in its own run,
// so its delta code is no longer than before, and the larger of the two
// heads becomes a delta of at most MaxLen bytes instead of HeadBytes.
func mergeBound(used int, sub []uint64) int {
	return used + codec.SizeOfRun(sub) + codec.MaxLen - codec.HeadBytes
}

// mergeRun merges sub (sorted, duplicate-free, nonzero) into the encoded
// run src[:used] and writes the encoding of the union to dst, which must
// hold mergeBound(used, sub) bytes and must not overlap src. It returns the
// encoded size and how many keys of sub were new; when fresh is 0, dst
// holds nothing of use.
func mergeRun(dst, src []byte, used int, sub []uint64) (w, fresh int) {
	if used == 0 {
		return codec.EncodeRun(dst, sub), len(sub)
	}
	h := codec.Head(src)
	j := 0
	w = codec.HeadBytes
	if sub[0] < h {
		// New keys below the head: the smallest becomes the head, the rest
		// and the old head follow as deltas.
		codec.PutHead(dst, sub[0])
		prev := sub[0]
		for j = 1; j < len(sub) && sub[j] < h; j++ {
			w += codec.Put(dst[w:], sub[j]-prev)
			prev = sub[j]
		}
		fresh = j
		w += codec.Put(dst[w:], h-prev)
	} else {
		codec.PutHead(dst, h)
	}
	if j < len(sub) && sub[j] == h {
		j++
	}
	// v is the last key read from src; src[run:off] holds the codes read
	// since the last splice, still to be copied verbatim.
	v, off, run := h, codec.HeadBytes, codec.HeadBytes
	for j < len(sub) && off < used {
		// Inlined codec.Get: Go does not inline functions with loops.
		b := src[off]
		end := off + 1
		d := uint64(b & 0x7f)
		for shift := uint(7); b >= 0x80; shift += 7 {
			b = src[end]
			end++
			d |= uint64(b&0x7f) << shift
		}
		next := v + d
		if next <= sub[j] {
			if next == sub[j] {
				j++
			}
			v, off = next, end
			continue
		}
		// Splice the keys of sub in (v, next) in front of next, whose delta
		// is re-encoded against the last of them.
		w += copy(dst[w:], src[run:off])
		prev := v
		for ; j < len(sub) && sub[j] < next; j++ {
			w += codec.Put(dst[w:], sub[j]-prev)
			prev = sub[j]
			fresh++
		}
		if j < len(sub) && sub[j] == next {
			j++
		}
		w += codec.Put(dst[w:], next-prev)
		v, off, run = next, end, end
	}
	w += copy(dst[w:], src[run:used])
	// Whatever is left of sub lies above the leaf's maximum v.
	for prev := v; j < len(sub); j++ {
		w += codec.Put(dst[w:], sub[j]-prev)
		prev = sub[j]
		fresh++
	}
	return w, fresh
}

// removeRun deletes the keys of sub (sorted, duplicate-free) from the
// encoded run ld[:used] in place, clearing the freed bytes, and returns the
// new used size and how many keys it deleted. It writes nothing until it
// finds the first key to delete; it then calls writable, once, which must
// return the slab to compact — ld itself or an identical private copy (see
// leafDataW).
func removeRun(ld []byte, used int, sub []uint64, writable func() []byte) (w, dropped int) {
	if used == 0 || len(sub) == 0 {
		return used, 0
	}
	h := codec.Head(ld)
	j := 0
	for j < len(sub) && sub[j] < h {
		j++
	}
	// Output so far is ld[:w]; ld[run:off] holds kept codes still to be
	// moved down to w; reenc marks that the next kept key lost its
	// predecessor and needs a fresh delta against kept (or, while w is 0,
	// becomes the new head).
	kept := h
	w = codec.HeadBytes
	reenc := false
	if j < len(sub) && sub[j] == h {
		ld = writable()
		j++
		dropped = 1
		w, reenc = 0, true
	}
	off, run := codec.HeadBytes, codec.HeadBytes
	v := h
	for off < used && (j < len(sub) || reenc) {
		b := ld[off]
		end := off + 1
		d := uint64(b & 0x7f)
		for shift := uint(7); b >= 0x80; shift += 7 {
			b = ld[end]
			end++
			d |= uint64(b&0x7f) << shift
		}
		v += d
		for j < len(sub) && sub[j] < v {
			j++
		}
		if j < len(sub) && sub[j] == v {
			if dropped == 0 {
				ld = writable()
			}
			w = moveDown(ld, w, run, off)
			j++
			dropped++
			run, reenc = end, true
		} else {
			if reenc {
				if w == 0 {
					codec.PutHead(ld, v)
					w = codec.HeadBytes
				} else {
					w += codec.Put(ld[w:], v-kept)
				}
				run, reenc = end, false
			}
			kept = v
		}
		off = end
	}
	if dropped == 0 {
		return used, 0
	}
	w = moveDown(ld, w, run, used)
	clearBytes(ld[w:used])
	return w, dropped
}

// moveDown moves the codes ld[from:to] down to offset w and returns the
// offset past them. Before the first deletion they are already in place.
func moveDown(ld []byte, w, from, to int) int {
	if w != from {
		copy(ld[w:], ld[from:to])
	}
	return w + to - from
}

// leafHas reports whether x is in the leaf.
func (c *CPMA) leafHas(leaf int, x uint64) bool {
	ld := c.leafData(leaf)
	u := c.usedOf(leaf)
	if u == 0 {
		return false
	}
	v := codec.Head(ld)
	if v == x {
		return true
	}
	if v > x {
		return false
	}
	for off := codec.HeadBytes; off < u; {
		d, k := codec.Get(ld[off:])
		v += d
		if v == x {
			return true
		}
		if v > x {
			return false
		}
		off += k
	}
	return false
}

// leafIter applies f to the leaf's keys in order until f returns false.
// It reports whether the full leaf was visited. The byte-code decode is
// inlined by hand: Go does not inline functions containing loops, and this
// is the range-map hot path.
func (c *CPMA) leafIter(leaf int, f func(uint64) bool) bool {
	ld := c.leafData(leaf)
	u := c.usedOf(leaf)
	if u == 0 {
		return true
	}
	v := codec.Head(ld)
	if !f(v) {
		return false
	}
	for off := codec.HeadBytes; off < u; {
		b := ld[off]
		off++
		d := uint64(b & 0x7f)
		for shift := uint(7); b >= 0x80; shift += 7 {
			b = ld[off]
			off++
			d |= uint64(b&0x7f) << shift
		}
		v += d
		if !f(v) {
			return false
		}
	}
	return true
}

// leafSum returns the sum of the leaf's keys (inlined decode; see leafIter).
func (c *CPMA) leafSum(leaf int) uint64 {
	ld := c.leafData(leaf)
	u := c.usedOf(leaf)
	if u == 0 {
		return 0
	}
	v := codec.Head(ld)
	s := v
	for off := codec.HeadBytes; off < u; {
		b := ld[off]
		off++
		d := uint64(b & 0x7f)
		for shift := uint(7); b >= 0x80; shift += 7 {
			b = ld[off]
			off++
			d |= uint64(b&0x7f) << shift
		}
		v += d
		s += v
	}
	return s
}
