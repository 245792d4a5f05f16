package verify

import (
	"fmt"
	"sort"
)

// Severity ranks a diagnostic. Errors reject the program at registration;
// warnings and infos are advisory (surfaced by hipec lint and hipec
// compile but never block loading).
type Severity uint8

const (
	SevInfo Severity = iota
	SevWarning
	SevError
)

// String returns the conventional lowercase severity label.
func (s Severity) String() string {
	switch s {
	case SevError:
		return "error"
	case SevWarning:
		return "warning"
	}
	return "info"
}

// Code identifies the analysis that produced a diagnostic. Codes are stable
// strings: tests and tools match on them, messages are free to evolve.
type Code string

const (
	// Structural checks.
	CodeMissingMagic  Code = "missing-magic"
	CodeEmptyProgram  Code = "empty-program"
	CodeMissingEvent  Code = "missing-event"
	CodeIllegalOpcode Code = "illegal-opcode"
	CodeBadFlag       Code = "bad-flag"
	CodeNoReturn      Code = "no-return"
	CodeJumpRange     Code = "jump-range"
	CodeExtension     Code = "extension-disabled"

	// Operand typing.
	CodeOperandKind   Code = "operand-kind"
	CodeKindConflict  Code = "kind-conflict"
	CodeReadOnlyWrite Code = "readonly-write"

	// Control flow.
	CodeRunOffEnd   Code = "run-off-end"
	CodeUnreachable Code = "unreachable"

	// Activate call graph.
	CodeUndefinedEvent Code = "undefined-event"
	CodeActivateCycle  Code = "activate-cycle"
	CodeActivateDepth  Code = "activate-depth"

	// Page-register dataflow.
	CodeUndefinedPageReg Code = "undefined-page-register"
	CodeEmptyReg         Code = "maybe-empty-register"

	// Loop boundedness.
	CodeInfiniteLoop Code = "infinite-loop"
	CodeStuckLoop    Code = "stuck-loop"

	// Frame accounting.
	CodeFrameLeak Code = "frame-leak"
	CodeNoRelease Code = "no-release"
)

// Diagnostic is one verifier finding, located by event and command counter.
// Event -1 marks a spec-level finding with no single program location.
type Diagnostic struct {
	Code      Code
	Severity  Severity
	Event     int
	EventName string
	CC        int
	Msg       string
}

// String renders the diagnostic in the verifier's one-line format.
func (d Diagnostic) String() string {
	if d.Event < 0 {
		return fmt.Sprintf("%s: spec: %s [%s]", d.Severity, d.Msg, d.Code)
	}
	return fmt.Sprintf("%s: event %s CC=%d: %s [%s]", d.Severity, d.EventName, d.CC, d.Msg, d.Code)
}

// HasErrors reports whether any diagnostic is error-severity.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == SevError {
			return true
		}
	}
	return false
}

// Errors filters the error-severity diagnostics.
func Errors(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Severity == SevError {
			out = append(out, d)
		}
	}
	return out
}

// sortDiags orders diagnostics most-severe first, then by program location.
func sortDiags(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Event != b.Event {
			return a.Event < b.Event
		}
		if a.CC != b.CC {
			return a.CC < b.CC
		}
		return a.Code < b.Code
	})
}
