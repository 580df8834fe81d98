// Command fp8fsck verifies and repairs fp8bench result store
// directories, the way fsck verifies a filesystem: every cell,
// manifest, leftover temp file and foreign file is classified, damage
// is reported, and -repair quarantines damaged entries (into the store's
// quarantine/ subdirectory) so the next sweep recomputes exactly the
// cells that were lost.
//
// Usage:
//
//	fp8fsck [-repair] [-tmp-age 10m] dir [dir...]
//
// Exit status: 0 when every store is healthy (no unrepaired damage —
// informational findings such as incomplete grids or orphan cells do
// not fail the check), 1 when unrepaired damage remains, 2 on usage or
// I/O errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"fp8quant/internal/resultstore"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("fp8fsck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	repair := fs.Bool("repair", false, "quarantine damaged entries so the next sweep recomputes them")
	tmpAge := fs.Duration("tmp-age", 0, "ignore temp files younger than this (0 flags every temp file; use a positive age when a sweep may be live)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: fp8fsck [-repair] [-tmp-age duration] dir [dir...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	dirs := fs.Args()
	if len(dirs) == 0 {
		fs.Usage()
		return 2
	}
	unhealthy := false
	for _, dir := range dirs {
		info, err := os.Stat(dir)
		if err != nil || !info.IsDir() {
			fmt.Fprintf(stderr, "fp8fsck: %s: not a directory\n", dir)
			return 2
		}
		s, err := resultstore.Open(dir)
		if err != nil {
			fmt.Fprintf(stderr, "fp8fsck: %v\n", err)
			return 2
		}
		rep, err := s.Fsck(resultstore.FsckOptions{Repair: *repair, TmpAge: *tmpAge})
		if err != nil {
			fmt.Fprintf(stderr, "fp8fsck: %v\n", err)
			return 2
		}
		for _, f := range rep.Findings {
			mark := "note"
			switch {
			case f.Repaired:
				mark = "repaired"
			case f.Damage:
				mark = "DAMAGE"
			}
			fmt.Fprintf(stdout, "fp8fsck: %s/%s: %s [%s]: %s\n", dir, f.File, f.Kind, mark, f.Detail)
		}
		fmt.Fprintf(stdout, "fp8fsck: %s: %d cells, %d manifests scanned; %d damaged, %d repaired\n",
			dir, rep.Cells, rep.Manifests, rep.Damage, rep.Repaired)
		if !rep.Healthy() {
			unhealthy = true
		}
	}
	if unhealthy {
		return 1
	}
	return 0
}
