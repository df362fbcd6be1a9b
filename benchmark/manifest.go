package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
)

// manifest is BENCHMARK.json. It is the one declaration of workloads,
// metric names, units and regression bounds: the harness looks units up
// here when it prints, so a run cannot emit a metric the file does not
// declare.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen; per-layer metrics carry none.
	Bound *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func loadManifest(path string) (*manifest, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseManifest(blob)
}

func parseManifest(blob []byte) (*manifest, error) {
	if len(blob) > 64<<10 {
		return nil, fmt.Errorf("manifest: %d bytes, over 64 KiB", len(blob))
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	return &m, nil
}

// validate enforces the benchmark contract's limits on the file.
func (m *manifest) validate() error {
	if n := len(m.Command); n < 1 || n > 32 {
		return fmt.Errorf("command has %d strings, want 1..32", n)
	}
	for _, c := range m.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			return fmt.Errorf("command string %q is too long, absolute, or leaves the repo", c)
		}
	}
	if n := len(m.Paths); n < 1 || n > 16 {
		return fmt.Errorf("paths has %d entries, want 1..16", n)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			return fmt.Errorf("path %q is not a relative path of letters, digits, _ . - /", p)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		return fmt.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		return fmt.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		return fmt.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		return fmt.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	use := func(name string) error {
		if !nameRE.MatchString(name) {
			return fmt.Errorf("name %q outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			return fmt.Errorf("name %q used twice", name)
		}
		seen[name] = true
		return nil
	}
	for _, w := range m.Workloads {
		if err := use(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	setup := false
	for _, d := range m.EndToEnd {
		if err := use(d.Name); err != nil {
			return err
		}
		if err := d.check(); err != nil {
			return err
		}
		if d.Bound == nil || math.IsNaN(*d.Bound) || *d.Bound < 0 || *d.Bound > 0.25 {
			return fmt.Errorf("metric %s: bound missing or outside 0..0.25", d.Name)
		}
		if d.Name == "setup_s" {
			if d.Unit != "s" || d.Better != "lower" {
				return fmt.Errorf("setup_s must have unit s and better lower")
			}
			setup = true
		}
	}
	if !setup {
		return fmt.Errorf("end_to_end lacks setup_s")
	}
	for _, d := range m.PerLayer {
		if err := use(d.Name); err != nil {
			return err
		}
		if err := d.check(); err != nil {
			return err
		}
		if d.Bound != nil {
			return fmt.Errorf("per-layer metric %s carries a bound", d.Name)
		}
	}
	return nil
}

func (d metricDecl) check() error {
	if !unitRE.MatchString(d.Unit) {
		return fmt.Errorf("metric %s: unit %q missing or malformed", d.Name, d.Unit)
	}
	if d.Better != "lower" && d.Better != "higher" {
		return fmt.Errorf("metric %s: better is %q, want lower or higher", d.Name, d.Better)
	}
	return nil
}

func (m *manifest) workload(name string) bool {
	for _, w := range m.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// assemble turns measured values into a result carrying exactly the
// declared metrics. An end-to-end metric must have been measured and be
// positive and finite; a per-layer metric of a layer that did no work in
// this workload reads 0.
func assemble(decls []metricDecl, vals map[string]float64, perLayer bool) (map[string]value, error) {
	out := map[string]value{}
	for _, d := range decls {
		v, ok := vals[d.Name]
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0) || v < 0:
			return nil, fmt.Errorf("metric %s measured as %v", d.Name, v)
		case !perLayer && (!ok || v == 0):
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	var stray []string
	for name := range vals {
		if _, ok := out[name]; !ok {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("measured but not declared in BENCHMARK.json: %s", strings.Join(stray, ", "))
	}
	return out, nil
}
