package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed interval at a layer boundary. The benchmark records
// spans around its own calls into a layer's public functions; spans
// inside the engine are a later change. Spans of one request share its
// identifier, and Parent names the span that caused this one.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 for a root
	Request int    `json:"request"`
	Name    string `json:"name"` // "<layer>.<call>"; a root is "request"
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Reported marks an interval the engine reported about itself
	// (operator statistics, compile phases) and the benchmark placed under
	// the call that produced it, as opposed to one it timed directly.
	Reported bool `json:"reported,omitempty"`
}

// tracer keeps spans in memory; write puts them on disk when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, request int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Request: request, Name: name, StartNS: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	sp := &t.spans[id-1]
	sp.EndNS = time.Since(t.t0).Nanoseconds()
	return time.Duration(sp.EndNS - sp.StartNS)
}

// time records a span around fn.
func (t *tracer) time(name string, parent, request int, fn func()) time.Duration {
	id := t.begin(name, parent, request)
	fn()
	return t.end(id)
}

// report records an interval the engine measured.
func (t *tracer) report(name string, parent, request int, start time.Time, d time.Duration) int {
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Request: request, Name: name, StartNS: s, EndNS: s + d.Nanoseconds(), Reported: true})
	return len(t.spans)
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover.
func (t *tracer) selfTimes() []time.Duration {
	type iv struct{ a, b int64 }
	kids := make([][]iv, len(t.spans))
	for _, sp := range t.spans {
		if sp.Parent == 0 {
			continue
		}
		p := t.spans[sp.Parent-1]
		a, b := max(sp.StartNS, p.StartNS), min(sp.EndNS, p.EndNS)
		if b > a {
			kids[sp.Parent-1] = append(kids[sp.Parent-1], iv{a, b})
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, sp := range t.spans {
		ks := kids[i]
		sort.Slice(ks, func(x, y int) bool { return ks[x].a < ks[y].a })
		covered, edge := int64(0), sp.StartNS
		for _, k := range ks {
			if k.b <= edge {
				continue
			}
			covered += k.b - max(k.a, edge)
			edge = k.b
		}
		self[i] = time.Duration(sp.EndNS - sp.StartNS - covered)
	}
	return self
}

// layerOf is a span's layer: the module name before the dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return ""
}

// printLayers prints the self time each layer accumulated over the
// traced run, largest first.
func (t *tracer) printLayers(logf func(string, ...any)) {
	byLayer := map[string]time.Duration{}
	for i, d := range t.selfTimes() {
		if l := layerOf(t.spans[i].Name); l != "" {
			byLayer[l] += d
		}
	}
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	logf("  self time by layer over %d spans (calls the benchmark made into each layer, minus the spans nested in them):", len(t.spans))
	for _, l := range layers {
		logf("    %-10s %12.3f ms", l, ms(byLayer[l]))
	}
}

// write stores the trace as benchmark/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64, s *settings) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Scale    int    `json:"scale"`
		Spans    []span `json:"spans"`
	}{workload, seed, s.scale, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), blob, 0o644)
}
