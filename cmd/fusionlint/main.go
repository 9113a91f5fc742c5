// Command fusionlint is the repository's invariant checker: a
// multichecker of four repo-specific analyzers built on internal/lint
// (a stdlib-only go/analysis equivalent):
//
//	detsource  — no nondeterminism sources in the deterministic packages
//	shardgrid  — runtime.GOMAXPROCS/NumCPU only in linalg/parfor.go
//	apierror   — service errors only through apierror.go's envelope,
//	             with fusionclient's registered codes
//	telemetry  — library diagnostics through the injected logger, metric
//	             names in the fusion_<subsystem>_<name>[_unit] scheme
//
// The enforced invariants are documented in docs/invariants.md.
//
// Standalone (the required CI step):
//
//	go run ./cmd/fusionlint ./...
//
// As a vet tool, for editor/toolchain integration:
//
//	go install ./cmd/fusionlint
//	go vet -vettool=$(go env GOPATH)/bin/fusionlint ./...
//
// Exit status: 0 clean, 1 tool failure, 2 findings.
package main

import (
	"fmt"
	"os"
	"strings"

	"resilientfusion/internal/lint"
	"resilientfusion/internal/lint/apierror"
	"resilientfusion/internal/lint/detsource"
	"resilientfusion/internal/lint/shardgrid"
	telemetrylint "resilientfusion/internal/lint/telemetry"
)

var analyzers = []*lint.Analyzer{
	detsource.Analyzer,
	shardgrid.Analyzer,
	apierror.Analyzer,
	telemetrylint.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// `go vet` probes the tool twice before use: -V=full for the build
	// cache key, -flags for the JSON description of tool flags (none).
	for _, a := range args {
		switch a {
		case "-V=full", "-V":
			fmt.Println("fusionlint version v1")
			return 0
		case "-flags":
			fmt.Println("[]")
			return 0
		}
	}
	// `go vet -vettool` invokes the tool once per compilation unit with
	// the unit's config file as the sole argument.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		diags, err := lint.RunVetTool(args[0], analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fusionlint:", err)
			return 1
		}
		return report(diags)
	}
	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	need := func(path string) bool {
		for _, a := range analyzers {
			if a.Applies == nil || a.Applies(path) {
				return true
			}
		}
		return false
	}
	pkgs, err := lint.Load(".", patterns, need)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fusionlint:", err)
		return 1
	}
	var all []lint.Diagnostic
	for _, pkg := range pkgs {
		diags, err := lint.RunAnalyzers(pkg, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fusionlint:", err)
			return 1
		}
		all = append(all, diags...)
	}
	return report(all)
}

func report(diags []lint.Diagnostic) int {
	if len(diags) == 0 {
		return 0
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	fmt.Fprintf(os.Stderr, "fusionlint: %d finding(s)\n", len(diags))
	return 2
}
