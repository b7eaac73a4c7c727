// Command gkfs-vet runs the repo's invariant analyzers (see
// internal/analysis and docs/INVARIANTS.md): bufpool, lockguard,
// framebound and metriccheck.
//
//	gkfs-vet [-list] [packages]
//
// The packages are go list patterns, "./..." when none are given; the go
// tool finds and compiles them, and gkfs-vet type-checks each against its
// dependencies' export data. -list prints the analyzers and exits.
//
// Exit status: 0 clean, 2 findings, 1 operational failure.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("gkfs-vet", flag.ContinueOnError)
	list := fs.Bool("list", false, "list analyzer names and exit")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%s\t%s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gkfs-vet: %v\n", err)
		return 1
	}
	findings := analysis.RunAnalyzers(pkgs, analysis.All())
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", f.Pos, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}
