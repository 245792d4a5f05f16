package main

import (
	"flag"
	"fmt"
	"io"

	"hipec/internal/hpl/verify"
)

// lint runs the static verifier (internal/hpl/verify) over policies
// without loading them into a kernel. Diagnostics print one per line as
//
//	policy: severity: event <name> CC=<n>: message [code]
//
// and the exit status is 1 when any policy has an error-severity finding
// (the same findings the in-kernel checker rejects at registration).
func lint(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hipec lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		builtin  = fs.String("builtin", "", "lint a canned policy (fifo, lru, mru, fifo2, sequential)")
		minFrame = fs.Int("minframe", 64, "minFrame for -builtin policies and sources that declare none")
		ext      = fs.Bool("ext", true, "allow extension opcodes (Migrate/Age) in binary policies")
	)
	if fs.Parse(args) != nil {
		return 2
	}
	if *builtin == "" && fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: hipec lint [-minframe N] [-ext=false] [-builtin <name>] [policy ...]")
		return 2
	}
	status := 0
	check := func(canned, path string) {
		name := canned + path
		diags, err := lintPolicy(canned, path, *minFrame, *ext)
		if err != nil {
			fmt.Fprintf(stderr, "hipec lint: %s: %v\n", name, err)
			status = 1
			return
		}
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s: %s\n", name, d)
		}
		if verify.HasErrors(diags) {
			status = 1
		}
	}
	if *builtin != "" {
		check(*builtin, "")
	}
	for _, path := range fs.Args() {
		check("", path)
	}
	return status
}

// lintPolicy loads and verifies one policy, canned or from a file.
func lintPolicy(builtin, path string, minFrame int, ext bool) ([]verify.Diagnostic, error) {
	p, err := loadPolicy(builtin, minFrame, "", path)
	if err != nil {
		return nil, err
	}
	return p.analyze(ext)
}
