package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The go command probes a vettool with -V=full and -flags before
// trusting it; both must short-circuit cleanly or `go vet -vettool`
// dies before analyzing anything.
func TestVetProtocolProbes(t *testing.T) {
	if got := run([]string{"-V=full"}); got != 0 {
		t.Fatalf("run(-V=full) = %d, want 0", got)
	}
	if got := run([]string{"-flags"}); got != 0 {
		t.Fatalf("run(-flags) = %d, want 0", got)
	}
}

func TestEveryAnalyzerRegistered(t *testing.T) {
	want := map[string]bool{"detsource": true, "shardgrid": true, "apierror": true, "telemetry": true}
	for _, a := range analyzers {
		if !want[a.Name] {
			t.Errorf("unexpected analyzer %q", a.Name)
		}
		delete(want, a.Name)
		if a.Run == nil || a.Applies == nil || a.Doc == "" {
			t.Errorf("analyzer %q incompletely wired", a.Name)
		}
	}
	for name := range want {
		t.Errorf("analyzer %q not registered", name)
	}
}

// TestInvariantsDocCitesExistingTests keeps docs/invariants.md honest:
// every Test… or Fuzz… name it cites as an enforcing test must be
// declared in some _test.go file of the repository, so deleting or
// renaming a test cannot silently orphan the invariant it guards.
func TestInvariantsDocCitesExistingTests(t *testing.T) {
	doc, err := os.ReadFile("../../docs/invariants.md")
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z]\w*`).FindAllString(string(doc), -1)
	if len(cited) == 0 {
		t.Fatal("docs/invariants.md cites no tests")
	}
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	err = filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) && path != "../.." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range cited {
		if !declared[name] {
			t.Errorf("docs/invariants.md cites %s, which no _test.go file declares", name)
		}
	}
}
