package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json's schema key for key; decoding with
// DisallowUnknownFields turns any key the schema does not name into a
// test failure.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// TestManifest holds BENCHMARK.json to the driver's schema and to the
// tables this program emits from, in both directions. It starts no
// daemon.
func TestManifest(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("manifest is %d bytes, over 64 KiB", len(data))
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := top[k]; !ok {
			t.Errorf("key %q is missing", k)
		}
	}

	if n := len(m.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings, want 1..32", n)
	}
	if n := len(m.Paths); n < 1 || n > 16 {
		t.Errorf("%d paths, want 1..16", n)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q is not a plain relative path", p)
		}
		if st, err := os.Stat(filepath.Join(root, p)); err != nil || !st.IsDir() {
			t.Errorf("path %q is not a directory of the repo", p)
		}
	}
	for _, arg := range m.Command {
		if len(arg) > 200 || strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q is too long or leaves the checkout", arg)
		}
		// An argument that names something in the repo must name it
		// under one of the paths.
		if _, err := os.Stat(filepath.Join(root, arg)); err == nil {
			under := false
			for _, p := range m.Paths {
				under = under || strings.HasPrefix(arg, strings.TrimSuffix(p, "/")+"/")
			}
			if !under {
				t.Errorf("command argument %q names a repo file outside paths", arg)
			}
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", m.RunSeconds)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}

	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not fit the schema", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	metric := func(n, unit, better string) {
		name(n)
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q does not fit the schema", n, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better is %q", n, better)
		}
	}

	// Workloads: the manifest's set is the program's set.
	have := map[string]bool{}
	for _, w := range m.Workloads {
		name(w.Name)
		have[w.Name] = true
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters, has %d", w.Name, len(w.Why))
		}
		if findWorkload(w.Name) == nil {
			t.Errorf("workload %s is in the manifest but the program does not run it", w.Name)
		}
	}
	for _, w := range workloads {
		if !have[w.name] {
			t.Errorf("workload %s is run by the program but missing from the manifest", w.name)
		}
	}

	// Metrics: same names, units, directions and bounds as the tables
	// the program emits from (what -list prints).
	e2e := map[string]metricDef{}
	for _, d := range endToEnd {
		e2e[d.Name] = d
	}
	setup := false
	for _, d := range m.EndToEnd {
		metric(d.Name, d.Unit, d.Better)
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", d.Name)
			continue
		}
		want, ok := e2e[d.Name]
		if !ok {
			t.Errorf("end-to-end metric %s is in the manifest but not emitted", d.Name)
			continue
		}
		if want.Unit != d.Unit || want.Better != d.Better || want.Bound != *d.Bound {
			t.Errorf("%s: manifest says %s/%s/%v, program says %s/%s/%v",
				d.Name, d.Unit, d.Better, *d.Bound, want.Unit, want.Better, want.Bound)
		}
		delete(e2e, d.Name)
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for n := range e2e {
		t.Errorf("end-to-end metric %s is emitted but missing from the manifest", n)
	}
	if !setup {
		t.Error("setup_s (unit s, better lower) is missing")
	}
	layer := map[string]metricDef{}
	for _, d := range perLayer {
		layer[d.Name] = d
	}
	for _, d := range m.PerLayer {
		metric(d.Name, d.Unit, d.Better)
		want, ok := layer[d.Name]
		if !ok {
			t.Errorf("per-layer metric %s is in the manifest but not emitted", d.Name)
			continue
		}
		if want.Unit != d.Unit || want.Better != d.Better {
			t.Errorf("%s: manifest says %s/%s, program says %s/%s", d.Name, d.Unit, d.Better, want.Unit, want.Better)
		}
		delete(layer, d.Name)
	}
	for n := range layer {
		t.Errorf("per-layer metric %s is emitted but missing from the manifest", n)
	}
}
