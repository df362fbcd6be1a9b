package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestManifestIsValid(t *testing.T) {
	m, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	for _, w := range m.Workloads {
		if w.Name != "ingest_recover" && httpWorkloads[w.Name].mix == nil {
			t.Errorf("manifest declares workload %s, which the harness does not implement", w.Name)
		}
	}
	if got := len(m.Workloads); got != len(httpWorkloads)+1 {
		t.Errorf("manifest declares %d workloads, the harness implements %d", got, len(httpWorkloads)+1)
	}
}

// TestManifestRules breaks the real manifest one rule at a time.
func TestManifestRules(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, breakIt := range map[string]func(m map[string]any){
		"name outside the alphabet": func(m map[string]any) { first(m, "per_layer")["name"] = "serve wire" },
		"name used twice":           func(m map[string]any) { first(m, "per_layer")["name"] = "qps" },
		"one workload":              func(m map[string]any) { m["workloads"] = m["workloads"].([]any)[:1] },
		"nine workloads":            func(m map[string]any) { m["workloads"] = repeat(first(m, "workloads"), "name", 9) },
		"17 end-to-end metrics":     func(m map[string]any) { m["end_to_end"] = repeat(first(m, "end_to_end"), "name", 17) },
		"129 per-layer metrics":     func(m map[string]any) { m["per_layer"] = repeat(first(m, "per_layer"), "name", 129) },
		"no setup_s":                func(m map[string]any) { first(m, "end_to_end")["name"] = "boot_s" },
		"metric without unit":       func(m map[string]any) { delete(first(m, "per_layer"), "unit") },
		"metric without direction":  func(m map[string]any) { delete(first(m, "end_to_end"), "better") },
		"metric without bound":      func(m map[string]any) { delete(first(m, "end_to_end"), "bound") },
		"bound over a quarter":      func(m map[string]any) { first(m, "end_to_end")["bound"] = 0.3 },
		"two-line why":              func(m map[string]any) { first(m, "workloads")["why"] = "one\ntwo" },
		"extra key":                 func(m map[string]any) { m["clients"] = 2 },
		"absolute command":          func(m map[string]any) { m["command"] = []any{"/bin/bash", "benchmark/run.sh"} },
		"run_seconds 61":            func(m map[string]any) { m["run_seconds"] = 61 },
	} {
		var doc map[string]any
		if err := json.Unmarshal(blob, &doc); err != nil {
			t.Fatal(err)
		}
		breakIt(doc)
		broken, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := parseManifest(broken); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func first(m map[string]any, key string) map[string]any {
	return m[key].([]any)[0].(map[string]any)
}

// repeat makes n copies of item with distinct values under key.
func repeat(item map[string]any, key string, n int) []any {
	out := make([]any, n)
	for i := range out {
		c := map[string]any{}
		for k, v := range item {
			c[k] = v
		}
		c[key] = strings.Repeat("x", i+1)
		out[i] = c
	}
	return out
}
