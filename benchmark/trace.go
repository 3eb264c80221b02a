package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layers a span can be attributed to. A span around a public call belongs
// to the layer that call enters: Set methods to cpma, ShardedSet and
// snapshot methods to shard, durable open/checkpoint/reopen to persist,
// ShardedFGraph methods and views to fgraph, the kernels to graph. bench
// spans are the benchmark's own rounds and windows.
var layers = []string{"bench", "cpma", "shard", "persist", "fgraph", "graph"}

// span is one timed interval. Parent is the index of the enclosing span
// (-1 for a root); Round groups the spans of one client round.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Round  int32  `json:"round"`
	Count  int32  `json:"count,omitempty"` // calls covered by a block span
}

// maxSpans bounds the in-memory trace; spans beyond it are counted, not
// kept.
const maxSpans = 1 << 20

// tracer keeps spans in memory and writes them out when the run ends. A
// nil *tracer is the untraced run: every method is a no-op, so the
// measured code paths are identical apart from one nil check per call.
type tracer struct {
	t0      time.Time
	paused  atomic.Bool // during warm-up: record nothing
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// pause stops (true) or resumes (false) recording.
func (t *tracer) pause(p bool) {
	if t != nil {
		t.paused.Store(p)
	}
}

// begin opens a span and returns its id (-1 when untraced, paused or
// full).
func (t *tracer) begin(layer, name string, parent, round int) int {
	if t == nil || t.paused.Load() {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: now, End: -1, Parent: int32(parent), Round: int32(round)})
	return len(t.spans) - 1
}

// end closes span id, recording how many calls it covered.
func (t *tracer) end(id, count int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	if count > 1 {
		t.spans[id].Count = int32(count)
	}
	t.mu.Unlock()
}

// call times f as one span.
func (t *tracer) call(layer, name string, parent, round int, f func()) {
	id := t.begin(layer, name, parent, round)
	f()
	t.end(id, 1)
}

// selfTime returns each layer's self time in seconds: every span's
// duration minus the part of it that its child spans cover.
func (t *tracer) selfTime() map[string]float64 {
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		out[l] = 0
	}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self := s.End - s.Start - covered(children[int32(i)], s.Start, s.End)
		out[s.Layer] += float64(self) / 1e9
	}
	return out
}

// covered returns the length of the union of intervals clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, v := range iv {
		a, b := max(v[0], cur), min(v[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write saves the spans and per-layer self times as JSON to path.
func (t *tracer) write(path string, self map[string]float64) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(map[string]any{
		"self_s":  self,
		"dropped": t.dropped,
		"spans":   t.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
