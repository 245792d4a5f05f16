// Command hipec is the HiPEC policy toolchain: the pseudo-code translator
// of §4.3.4, the disassembler, the static verifier and a simulated-kernel
// driver, as subcommands over one policy loader.
//
// Usage:
//
//	hipec compile [-o out.bin] [-list=false] policy.hpl
//	hipec compile -builtin mru -minframe 1024      # show a canned policy
//	hipec dis policy.bin
//	hipec lint policy.hpl policy.bin ...
//	hipec lint -builtin fifo2
//	hipec run -policy mru -workload cyclic -pages 2048 -pool 512
//
// A policy file is a binary container when it starts with the "HPEC"
// magic and HPL source otherwise. Source and canned policies carry the
// full operand contract a registering kernel sees; a binary carries only
// its event programs, so the verifier runs on it in kind-inference mode
// and reports conflicting uses instead of authoritative kind errors.
//
// Exit status is 0 on success, 1 on failure (including error-severity
// verifier findings) and 2 on usage errors.
package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"hipec/internal/core"
	"hipec/internal/hpl"
	"hipec/internal/hpl/verify"
	"hipec/internal/policies"
)

const usage = `usage: hipec <command> [flags] [policy ...]

commands:
  compile   translate HPL source, verify it, print the listing, write a binary with -o
  dis       disassemble a policy binary
  lint      run the static verifier over source files, binaries or -builtin <name>
  run       drive a policy against a synthetic workload on the simulated kernel
`

func main() {
	commands := map[string]func([]string, io.Writer, io.Writer) int{
		"compile": compile, "dis": dis, "lint": lint, "run": run,
	}
	if len(os.Args) < 2 || commands[os.Args[1]] == nil {
		fmt.Fprint(os.Stderr, usage)
		os.Exit(2)
	}
	os.Exit(commands[os.Args[1]](os.Args[2:], os.Stdout, os.Stderr))
}

// policy is one loaded policy: a spec for source and canned policies,
// bare event programs for a binary, because the container format carries
// no operand table. Exactly one of spec and events is set.
type policy struct {
	name   string
	spec   *core.Spec
	events []core.Program
}

// loadPolicy reads a canned policy by name or, when builtin is empty, the
// file at path, sniffing the container magic to tell binary from source.
// minFrame sizes a canned policy and a source that declares no minframe.
func loadPolicy(builtin string, minFrame int, name, path string) (*policy, error) {
	if builtin != "" {
		spec, err := policies.ByName(builtin, minFrame)
		if err != nil {
			return nil, err
		}
		return &policy{name: spec.Name, spec: spec}, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if name == "" {
		name = path
	}
	if len(data) >= 4 && binary.LittleEndian.Uint32(data) == hpl.BinaryMagic {
		events, err := hpl.DecodeBinaryBytes(data)
		if err != nil {
			return nil, err
		}
		return &policy{name: name, events: events}, nil
	}
	spec, err := hpl.Translate(name, string(data))
	if err != nil {
		return nil, err
	}
	if spec.MinFrame == 0 {
		spec.MinFrame = minFrame
	}
	return &policy{name: name, spec: spec}, nil
}

// loadSpec loads a policy that must have a spec: a canned one, or the
// single source file in args.
func loadSpec(builtin string, minFrame int, name string, args []string) (*core.Spec, error) {
	path := ""
	if builtin == "" {
		if len(args) != 1 {
			return nil, fmt.Errorf("usage: want one policy.hpl (or -builtin <name>)")
		}
		path = args[0]
	}
	p, err := loadPolicy(builtin, minFrame, name, path)
	if err != nil {
		return nil, err
	}
	if p.spec == nil {
		return nil, fmt.Errorf("%s is a policy binary, want HPL source", path)
	}
	return p.spec, nil
}

// analyze runs the static verifier: with the full operand contract when
// the policy has a spec, in kind-inference mode on a binary (ext admits
// the Migrate/Age extension opcodes there).
func (p *policy) analyze(ext bool) ([]verify.Diagnostic, error) {
	if p.spec != nil {
		u, err := core.UnitForSpec(p.spec)
		if err != nil {
			return nil, err
		}
		return verify.Analyze(u), nil
	}
	u := verify.NewUnit(p.name)
	u.Events = p.events
	u.Extensions = ext
	return verify.Analyze(u), nil
}
