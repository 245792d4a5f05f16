package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hipec/internal/core"
	"hipec/internal/hpl"
	"hipec/internal/hpl/verify"
)

// compile translates an HPL policy into HiPEC command streams. The result
// always goes through the static verifier first: diagnostics go to stderr
// and error-severity findings fail the compile before any output, exactly
// as the in-kernel checker rejects the policy at registration. With -list
// (default) the Table-2-style annotated listing is written to stdout; with
// -o the binary container (internal/hpl/binary.go) is written for loading
// elsewhere.
func compile(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hipec compile", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out      = fs.String("o", "", "write the policy binary to this file")
		list     = fs.Bool("list", true, "print the annotated listing")
		builtin  = fs.String("builtin", "", "show a canned policy instead of compiling a file (fifo, lru, mru, fifo2, sequential)")
		minFrame = fs.Int("minframe", 64, "minFrame for -builtin policies and sources that declare none")
		name     = fs.String("name", "", "policy name (defaults to the file name)")
	)
	if fs.Parse(args) != nil {
		return 2
	}
	spec, err := loadSpec(*builtin, *minFrame, *name, fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "hipec compile:", err)
		return 1
	}
	diags, err := (&policy{spec: spec}).analyze(false)
	if err != nil {
		fmt.Fprintln(stderr, "hipec compile:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintf(stderr, "hipec compile: %s: %s\n", spec.Name, d)
	}
	if verify.HasErrors(diags) {
		fmt.Fprintln(stderr, "hipec compile: policy rejected by verifier")
		return 1
	}
	if *list {
		fmt.Fprint(stdout, hpl.DisassembleSpec(spec))
	}
	if *out != "" {
		if err := writeBinary(*out, spec); err != nil {
			fmt.Fprintln(stderr, "hipec compile:", err)
			return 1
		}
		fmt.Fprintf(stderr, "hipec compile: wrote %s\n", *out)
	}
	return 0
}

// writeBinary emits the binary policy container.
func writeBinary(path string, spec *core.Spec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := hpl.EncodeBinary(f, spec); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
