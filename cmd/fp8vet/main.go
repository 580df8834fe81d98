// Command fp8vet runs the project's determinism-contract analyzers.
//
// Usage:
//
//	fp8vet ./...                 analyze every package
//	fp8vet -checks mapiter ./... run a subset of the checks
//	fp8vet -list                 describe the checks
//
// The suite enforces the source-level invariants the result store,
// its ingest protocol and the kernel bit-identity proofs rest on —
// mapiter, nondeterm, floatorder, atomicwrite and cellpurity — plus
// unused, which keeps internal/ free of code only tests reach; see
// internal/analyzers for the individual checks. Findings print as
// file:line: [check] message, followed by a per-check summary table.
// The exit status is 1 when any finding survives its allowlist
// (//fp8vet:ignore <check> <reason>), 2 on usage or load errors — so
// `make vet-contracts` is a hard CI gate.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"fp8quant/internal/analyzers"
)

func main() {
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := flag.Bool("list", false, "describe the available checks")
	dir := flag.String("C", ".", "directory to resolve package patterns from")
	flag.Parse()

	if *list {
		for _, a := range analyzers.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	as, err := analyzers.ByName(*checks)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fp8vet: %v\n", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analyzers.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fp8vet: %v\n", err)
		os.Exit(2)
	}

	results := analyzers.RunAll(pkgs, as)
	total := 0
	for _, r := range results {
		for _, f := range r.Findings {
			fmt.Printf("%s:%d: [%s] %s\n", relPath(f.Pos.Filename), f.Pos.Line, f.Check, f.Message)
			total++
		}
	}
	if total > 0 {
		fmt.Println()
	}
	fmt.Printf("%-12s %9s %9s\n", "check", "findings", "ignored")
	fmt.Printf("%-12s %9s %9s\n", "-----", "--------", "-------")
	for _, r := range results {
		fmt.Printf("%-12s %9d %9d\n", r.Analyzer.Name, len(r.Findings), r.Ignored)
	}
	if total > 0 {
		fmt.Printf("\nfp8vet: %d finding(s) — the determinism contract does not hold\n", total)
		os.Exit(1)
	}
	fmt.Printf("\nfp8vet: clean (%d packages)\n", len(pkgs))
}

// relPath shortens a filename to be relative to the working directory
// when possible; findings stay clickable either way.
func relPath(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	if rel, err := filepath.Rel(wd, path); err == nil && len(rel) < len(path) {
		return rel
	}
	return path
}
