// Command hipecvet runs the repo's custom static-analysis passes
// (internal/analyzers) over the source tree: the type-aware engine proves
// the determinism rules (wallclock, globalrand), the substrate seam
// (simclock), the typed-error and no-global-state discipline (errtype,
// globalstate), the single loop's no-blocking rule (blockinloop) and the
// hot path's no-map rule (mapinloop) — the seven invariants no test, golden
// or -race run catches being broken. It is the CI companion of the HPL
// policy verifier — the same idea pointed at the Go sources.
//
// Usage:
//
//	hipecvet [-json] [repo-root]
//
// With -json, findings are written to stdout as a JSON array of
// {file, line, col, pass, msg} objects (an empty array when clean) — the
// CI job uploads it as an artifact on failure. Exit status is 1 when any
// finding is reported, 2 on analysis errors.
//
// Findings are suppressed inline with
//
//	//hipec:vet-ignore <pass>[,<pass>] -- <reason>
//
// on the offending line or the line above; the reason is mandatory and an
// unused suppression is itself a finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"hipec/internal/analyzers"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	flag.Parse()
	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	findings, err := analyzers.Run(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hipecvet:", err)
		os.Exit(2)
	}
	if *jsonOut {
		if findings == nil {
			findings = []analyzers.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "hipecvet:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
