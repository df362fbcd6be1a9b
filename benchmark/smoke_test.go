package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload, untraced and traced, at scale 2 with
// one-second windows against a listener inside the test process, and
// holds what each run prints to the manifest: every declared metric and
// no other, finite and non-negative, end-to-end ones positive.
func TestSmoke(t *testing.T) {
	m, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				var report bytes.Buffer
				s := defaults()
				s.scale, s.clients, s.setups = 2, 2, 2
				s.warmup, s.seconds = 200*time.Millisecond, time.Second
				s.bulkBatches, s.batchRows, s.traceBatches = 20, 50, 30
				s.tmp, s.out, s.log = t.TempDir(), t.TempDir(), &report
				res, ok := runOne(context.Background(), m, s, w.Name, 7, traced)
				if !ok {
					t.Fatalf("run failed:\n%s", report.String())
				}
				decls := m.EndToEnd
				if traced {
					decls = m.PerLayer
				}
				if len(res.Metrics) != len(decls) {
					t.Errorf("run printed %d metrics, manifest declares %d", len(res.Metrics), len(decls))
				}
				for _, d := range decls {
					v, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s: declared but not printed", d.Name)
					case v.Unit != d.Unit:
						t.Errorf("%s: unit %q, manifest says %q", d.Name, v.Unit, d.Unit)
					case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0:
						t.Errorf("%s = %v", d.Name, v.Value)
					case !traced && v.Value == 0:
						t.Errorf("%s: an end-to-end metric must never read 0", d.Name)
					}
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, report.String())
				}
				// The last line of the report is the result object, alone.
				lines := bytes.Split(bytes.TrimSpace(report.Bytes()), []byte("\n"))
				var last map[string]json.RawMessage
				if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || len(last) != 4 {
					t.Errorf("last line is not the four-key result object: %s", lines[len(lines)-1])
				}
				if traced {
					if _, err := os.Stat(filepath.Join(s.out, "trace-"+w.Name+".json")); err != nil {
						t.Errorf("traced run left no trace file: %v", err)
					}
				}
			})
		}
	}
}

func TestCountRows(t *testing.T) {
	for line, want := range map[string][2]int{
		`{"rows":[]}`:                         {0, 0},
		`{"rows":[[]]}`:                       {1, 0},
		`{"rows":[[1]]}`:                      {1, 1},
		`{"rows":[["a,b",2],["],[",null]]}`:   {2, 4},
		`{"rows":[["q\"],[",1.5,true]]}`:      {1, 3},
		`{"rows":[["x"],["y"],["z\\"]]}` + "": {3, 3},
	} {
		rows, cells := countRows([]byte(line))
		if rows != want[0] || cells != want[1] {
			t.Errorf("countRows(%s) = %d rows, %d cells; want %d, %d", line, rows, cells, want[0], want[1])
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "request", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a.x", StartNS: 10, EndNS: 60},
		{ID: 3, Parent: 1, Name: "b.y", StartNS: 50, EndNS: 90},  // overlaps its sibling
		{ID: 4, Parent: 2, Name: "c.z", StartNS: 0, EndNS: 30},   // starts before its parent
		{ID: 5, Parent: 2, Name: "c.z", StartNS: 40, EndNS: 200}, // ends after it
	}
	want := []time.Duration{20, 10, 40, 30, 160}
	for i, got := range tr.selfTimes() {
		if got != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i+1, got, want[i])
		}
	}
}
