package main

import (
	"fmt"
	"io"

	"hipec/internal/hpl"
	"hipec/internal/hpl/verify"
)

// dis prints the Table-2-style annotated listing of every event in a
// policy binary written by hipec compile -o.
func dis(args []string, stdout, stderr io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(stderr, "usage: hipec dis policy.bin")
		return 2
	}
	p, err := loadPolicy("", 0, "", args[0])
	if err == nil && p.spec != nil {
		err = fmt.Errorf("%s is HPL source; hipec compile prints its listing", args[0])
	}
	if err != nil {
		fmt.Fprintln(stderr, "hipec dis:", err)
		return 1
	}
	var names verify.Unit
	for i, prog := range p.events {
		if len(prog) > 0 {
			fmt.Fprintf(stdout, "# The %s Event\n%s\n", names.EventName(i), hpl.Disassemble(prog))
		}
	}
	return 0
}
