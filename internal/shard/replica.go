package shard

// Replica mode: a read-only Sharded set driven by a replication applier
// (repro/internal/repl) instead of clients. A replica runs the same
// pipeline as any other set — one mailbox writer per shard, reads served
// from the handles it publishes — but with no journal, no rebalancer and
// no absorber: its mutation history arrives pre-serialized as per-shard
// WAL records, already sorted and already routed, so the applier enqueues
// them through ReplicaApply/ReplicaReset/ReplicaSetBounds below. The whole
// read side — live reads, Snapshot, SnapshotStats — works unchanged, which
// is the point: a follower serves the exact read API the primary does, off
// state that is always a per-shard prefix of the primary's acknowledged
// history.
//
// Client mutations (Insert, InsertBatch, ...) panic on a replica: the
// replica's state must be a pure function of the replicated log, and a
// single locally inserted key would silently break the prefix invariant
// the differential harness (and any failover story) depends on.

import (
	"time"

	"repro/internal/cpma"
)

// NewReplica returns a read-only Sharded set for a replication follower.
// Only the geometry and read-side options are honored (Partition, KeyBits,
// Bounds, BoundsGen, Set); ingest options are ignored — appliers write
// through the Replica* methods, clients through none. Close the replica
// when done to stop its writers.
func NewReplica(shards int, opts *Options) *Sharded {
	var o Options
	if opts != nil {
		o = *opts
	}
	ro := Options{
		Partition: o.Partition,
		KeyBits:   o.KeyBits,
		Bounds:    o.Bounds,
		BoundsGen: o.BoundsGen,
		Set:       o.Set,
	}
	s := newSharded(shards, nil, &ro)
	s.replica = true
	return s
}

// Replica reports whether this set is a read-only replication follower.
func (s *Sharded) Replica() bool { return s.replica }

// checkNotReplica guards the client mutation entry points.
func (s *Sharded) checkNotReplica() {
	if s.replica {
		panic("shard: client mutation on a replication follower (replicas only change by replay)")
	}
}

// checkReplica guards the replica applier entry points.
func (s *Sharded) checkReplica(op string) {
	if !s.replica {
		panic("shard: " + op + " on a non-replica set")
	}
}

// ReplicaRecord is one replicated WAL record: a sorted key batch, inserted
// or removed exactly as the primary's writer applied it.
type ReplicaRecord struct {
	Remove bool
	Keys   []uint64
}

// ReplicaApply enqueues the records, in order, to shard p's writer and
// waits once for all of them, returning the number of keys whose
// membership changed. When it returns, every record is applied and
// published: the next Has or Snapshot includes them. Caller is the single
// applier goroutine; concurrent readers are safe.
func (s *Sharded) ReplicaApply(p int, recs []ReplicaRecord) int {
	s.checkReplica("ReplicaApply")
	if len(recs) == 0 {
		return 0
	}
	tk := newTicket(len(recs))
	now := time.Now()
	c := &s.cells[p]
	s.rlockOpen("ReplicaApply")
	for _, r := range recs {
		kind := opInsert
		if r.Remove {
			kind = opRemove
		}
		c.enqBatches.Add(1)
		c.enqKeys.Add(uint64(len(r.Keys)))
		c.mbox <- shardOp{kind: kind, keys: r.Keys, tk: tk, enq: now}
	}
	s.life.RUnlock()
	return tk.wait()
}

// ReplicaReset replaces shard p's entire state — the bootstrap path: the
// applier installs a checkpoint-chain state received from the primary and
// resumes record replay from the sequence it covers. Ownership of set
// transfers to the shard. The replacement is a writer op, ordered after
// every record enqueued before it, and published before the call returns.
func (s *Sharded) ReplicaReset(p int, set *cpma.CPMA) {
	s.checkReplica("ReplicaReset")
	if set == nil {
		set = cpma.New(s.opt.Set)
	}
	tk := newTicket(1)
	s.rlockOpen("ReplicaReset")
	s.cells[p].mbox <- shardOp{kind: opReset, set: set, tk: tk}
	s.life.RUnlock()
	tk.wait()
}

// ReplicaSetBounds installs the primary's boundary table at router
// generation gen, so the follower's range routing (shardSpan on reads,
// span pruning on MapRange) matches the shard contents the replicated
// moves produce. Stale or repeated generations are ignored. Like a
// rebalance it parks the writers, swaps the router, and republishes every
// shard's handle at the new span generation before resuming them; readers
// retry across the swap exactly as they do on the primary. No-op under
// HashPartition or on a closed replica.
func (s *Sharded) ReplicaSetBounds(gen uint64, bounds []uint64) {
	s.checkReplica("ReplicaSetBounds")
	if s.opt.Partition != RangePartition || len(s.cells) < 2 {
		return
	}
	s.life.Lock()
	defer s.life.Unlock()
	if s.closed || gen <= s.router().gen {
		return
	}
	nb := append([]uint64(nil), bounds...)
	checkBounds(nb, len(s.cells))
	sg := make([]uint64, len(s.cells))
	all := make([]int, len(s.cells))
	for i := range sg {
		sg[i] = gen
		all[i] = i
	}
	resume := s.quiesce(all...)
	defer resume()
	s.rt.Store(&router{
		part:    RangePartition,
		shards:  len(s.cells),
		bounds:  nb,
		gen:     gen,
		spanGen: sg,
	})
	for p := range s.cells {
		s.publish(p, &s.cells[p])
	}
}

// RouterBounds returns the current boundary table (a copy; nil under
// HashPartition) and its router generation from one atomic router load —
// the pair a replication shipper forwards to followers, where reading
// them in separate calls could pair a table with a neighboring
// generation across a concurrent move.
func (s *Sharded) RouterBounds() (gen uint64, bounds []uint64) {
	rt := s.router()
	if rt.bounds == nil {
		return rt.gen, nil
	}
	return rt.gen, append([]uint64(nil), rt.bounds...)
}

// ShardKeys returns the keys of shard p's published handle in ascending
// order — the differential harness's per-shard comparison primitive (the
// prefix invariant is per shard, so the comparison must be too; a
// cross-shard read would route through bounds that may sit at a different
// point of the move history than the shard contents do).
func (s *Sharded) ShardKeys(p int) []uint64 {
	return s.cells[p].snap.Load().set.Keys()
}
