package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"hipec/internal/mem"
)

// kernelConservation verifies that every physical frame is accounted for
// exactly once across the machine free pool, the daemon's queues, every
// container's queues and registers, and resident-but-unqueued (wired or
// in-laundering) pages. It is the global safety property the HiPEC design
// must preserve no matter what policies do.
func kernelConservation(t *testing.T, k *Kernel) {
	t.Helper()
	queues := []*mem.Queue{k.Daemon.Active, k.Daemon.Inactive}
	loose := map[*mem.Page]bool{}
	for _, c := range k.containers {
		queues = append(queues, c.queues()...)
		for _, p := range c.pageRegisters() {
			if p.Queue() == nil {
				loose[p] = true
			}
		}
	}
	// Resident pages that are on no queue (wired pages, pages mid-fault).
	for i := 0; i < k.VM.Frames.Frames(); i++ {
		p := k.VM.Frames.Page(i)
		if p.Queue() == nil && !loose[p] && k.isResident(p) {
			loose[p] = true
		}
	}
	if err := k.VM.Frames.Conservation(queues, loose); err != nil {
		t.Fatal(err)
	}
}

// randomProgram builds a random, statically-plausible event program from a
// vocabulary of commands. Most are well-formed; runtime failures (empty
// dequeues, empty registers) are expected and must terminate cleanly.
func randomProgram(rng *rand.Rand, length int) Program {
	cmds := make([]Command, 0, length+1)
	queueSlots := []uint8{SlotFreeQueue, SlotActiveQueue, SlotInactiveQueue}
	q := func() uint8 { return queueSlots[rng.Intn(len(queueSlots))] }
	for i := 0; i < length; i++ {
		switch rng.Intn(10) {
		case 0:
			cmds = append(cmds, Encode(OpComp, SlotFreeCount, SlotOne, uint8(rng.Intn(6))))
		case 1:
			cmds = append(cmds, Encode(OpEmptyQ, q(), 0, 0))
		case 2:
			cmds = append(cmds, Encode(OpDeQueue, SlotPageReg, q(), QueueHead))
		case 3:
			cmds = append(cmds, Encode(OpEnQueue, SlotPageReg, q(), QueueTail))
		case 4:
			cmds = append(cmds, Encode(OpRef, SlotPageReg, 0, 0))
		case 5:
			cmds = append(cmds, Encode(OpSet, SlotPageReg, SetBitReference, SetOpClear))
		case 6:
			cmds = append(cmds, Encode(OpFlush, SlotPageReg, 0, 0))
		case 7:
			cmds = append(cmds, Encode(OpRequest, SlotOne, 0, 0))
		case 8:
			cmds = append(cmds, Encode(OpRelease, SlotOne, 0, 0))
		case 9:
			cmds = append(cmds, Encode(uint8ToOp(rng), q(), 0, 0)) // FIFO/LRU/MRU
		}
	}
	cmds = append(cmds, Encode(OpReturn, SlotPageReg, 0, 0))
	return NewProgram(cmds...)
}

func uint8ToOp(rng *rand.Rand) Opcode {
	return []Opcode{OpFIFO, OpLRU, OpMRU}[rng.Intn(3)]
}

// TestPropertyRandomPoliciesNeverLeakFrames is the kernel-robustness fuzz:
// random policies drive faults until they either work or get terminated;
// in every outcome the machine's frames remain fully accounted for, the
// frame manager's books balance, and forced reclamation leaves every active
// container its guaranteed minimum.
//
// MinFrame bounds what the frame manager may take (§4.3.1), not what a
// policy may give back: a random program's Release can legally drop its
// own container below MinFrame, so the bound is checked across a forced
// reclamation, against the smaller of MinFrame and what the container held.
func TestPropertyRandomPoliciesNeverLeakFrames(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := testKernel(256)
		sp := k.NewSpace()
		spec := &Spec{
			Name: "fuzz",
			Events: []Program{
				randomProgram(rng, 3+rng.Intn(10)),
				randomProgram(rng, 1+rng.Intn(5)),
			},
			MinFrame: 4 + rng.Intn(12),
		}
		e, c, err := k.Allocate(sp, 64*4096, WithPolicy(spec))
		if err != nil {
			// Static checker rejected it: nothing was granted.
			return k.FM.SpecificTotal() == 0
		}
		// Drive random accesses; faults may kill the container, which is
		// fine — subsequent faults take the default path.
		for i := 0; i < 40; i++ {
			addr := e.Start + int64(rng.Intn(64))*4096
			if rng.Intn(2) == 0 {
				sp.Write(addr) //nolint:errcheck // errors are expected
			} else {
				sp.Touch(addr) //nolint:errcheck
			}
		}
		// settled lets the manager's asynchronous laundering finish, then
		// checks frame conservation and that the sum of grants equals the
		// manager's ledger.
		settled := func() bool {
			k.Clock.Advance(5 * time.Second)
			if k.FM.Stats().LaunderPending != 0 {
				return false
			}
			kernelConservation(t, k)
			total := 0
			for _, cc := range k.FM.Containers() {
				total += cc.Allocated()
			}
			return total == k.FM.SpecificTotal()
		}
		if !settled() {
			return false
		}
		held := c.allocated
		k.FM.reclaimForced(k.FM.SpecificTotal(), nil)
		if c.state == StateActive && c.allocated < min(held, c.MinFrame) {
			return false
		}
		return settled()
	}
	// A seed whose policy Releases its own container to one frame, below
	// its MinFrame of 8: legal, and the property must hold.
	if !f(7562520694726866662) {
		t.Fatal("seed 7562520694726866662 failed")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// wildProgram builds a program from a much rougher vocabulary than
// randomProgram: random opcodes (sometimes illegal), random slots
// (sometimes the wrong kind), random jump targets (sometimes out of
// range). Most of these are rejected by the verifier; the ones it accepts
// feed the soundness fuzz below.
func wildProgram(rng *rand.Rand, length int) Program {
	cmds := make([]Command, 0, length+2)
	queueSlots := []uint8{SlotFreeQueue, SlotActiveQueue, SlotInactiveQueue}
	q := func() uint8 { return queueSlots[rng.Intn(len(queueSlots))] }
	// Define the page register early so programs that return it have a
	// chance of verifying; the verifier still sees plenty of rejects from
	// the wild cases below.
	cmds = append(cmds, Encode(OpDeQueue, SlotPageReg, SlotFreeQueue, QueueHead))
	for i := 0; i < length; i++ {
		switch rng.Intn(14) {
		case 0:
			cmds = append(cmds, Encode(OpComp, SlotFreeCount, SlotOne, uint8(rng.Intn(8))))
		case 1:
			cmds = append(cmds, Encode(OpEmptyQ, q(), 0, 0))
		case 2:
			cmds = append(cmds, Encode(OpDeQueue, SlotPageReg, q(), QueueHead))
		case 3:
			cmds = append(cmds, Encode(OpEnQueue, SlotPageReg, q(), QueueTail))
		case 4:
			cmds = append(cmds, Encode(OpRef, SlotPageReg, 0, 0))
		case 5:
			cmds = append(cmds, Encode(OpSet, SlotPageReg, SetBitReference, SetOpClear))
		case 6:
			cmds = append(cmds, Encode(OpFlush, SlotPageReg, 0, 0))
		case 7:
			cmds = append(cmds, Encode(OpRequest, SlotOne, 0, 0))
		case 8:
			cmds = append(cmds, Encode(OpRelease, SlotOne, 0, 0))
		case 9:
			cmds = append(cmds, Encode(uint8ToOp(rng), q(), 0, 0))
		case 10:
			// Arith on scratch — sometimes against the wrong kind.
			src := SlotOne
			if rng.Intn(4) == 0 {
				src = SlotFreeQueue
			}
			cmds = append(cmds, Encode(OpArith, SlotScratch, src, ArithAdd))
		case 11:
			// Forward-ish jump; target may land out of range.
			cmds = append(cmds, Encode(OpJump, uint8(rng.Intn(3)), 0, uint8(i+2+rng.Intn(4))))
		case 12:
			// Logic on the CR with a random flag.
			cmds = append(cmds, Encode(OpLogic, SlotScratch, SlotScratch, uint8(rng.Intn(4))))
		default:
			// Fully wild: random opcode (sometimes beyond the ISA),
			// random slots, random flag.
			op := Opcode(rng.Intn(int(maxExtOpcode) + 3))
			cmds = append(cmds, Encode(op, uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(16))))
		}
	}
	cmds = append(cmds, Encode(OpReturn, SlotPageReg, 0, 0))
	return NewProgram(cmds...)
}

// TestPropertyVerifierSoundness: a program the static verifier accepts must
// never raise a runtime PolicyFault of a class the verifier claims to rule
// out — operand-kind misuse, illegal opcodes or flags, out-of-range jumps
// or command counters, read-only writes, undefined events, or Activate
// nesting overflows. Runtime-state faults (empty queues and registers,
// orphaned frames, division by zero, runaway budgets) remain legitimate.
// The executor checks every command, so a verifier soundness hole surfaces
// as a typed fault.
func TestPropertyVerifierSoundness(t *testing.T) {
	ruledOut := []string{
		"want int", "want bool", "want queue", "want page",
		"illegal opcode", "bad Arith flag", "bad Comp flag", "bad Logic flag",
		"bad Jump mode", "bad DeQueue flag", "bad EnQueue flag",
		"bad Set bit selector", "bad Set operation",
		"jump target", "command counter out of range",
		"read-only", "undefined event", "Activate nesting",
	}
	accepted := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := testKernel(128)
		sp := k.NewSpace()
		spec := &Spec{
			Name: "fuzz-sound",
			Events: []Program{
				wildProgram(rng, 2+rng.Intn(8)),
				wildProgram(rng, 1+rng.Intn(6)),
			},
			MinFrame: 4,
		}
		e, c, err := k.Allocate(sp, 32*4096, WithPolicy(spec))
		if err != nil {
			return true // rejected: nothing to check
		}
		accepted++
		check := func(err error) bool {
			if err == nil {
				return true
			}
			for _, class := range ruledOut {
				if strings.Contains(err.Error(), class) {
					t.Errorf("seed %d: verified program raised statically-ruled-out fault: %v", seed, err)
					return false
				}
			}
			return true
		}
		for i := 0; i < 20; i++ {
			_, err := sp.Touch(e.Start + int64(rng.Intn(32))*4096)
			if !check(err) {
				return false
			}
			if c.State() != StateActive {
				break
			}
		}
		if c.State() == StateActive {
			_, err := k.Executor.Run(c, EventReclaimFrame)
			if !check(err) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if accepted == 0 {
		t.Skip("no wild program passed the verifier in this run (vocabulary too hostile)")
	}
}

// TestPropertyRandomPoliciesAfterDestroy extends the fuzz across container
// teardown: every frame must return to the machine pool.
func TestPropertyRandomPoliciesAfterDestroy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := testKernel(128)
		sp := k.NewSpace()
		spec := &Spec{
			Name:     "fuzz-destroy",
			Events:   []Program{randomProgram(rng, 6), randomProgram(rng, 3)},
			MinFrame: 8,
		}
		e, c, err := k.Allocate(sp, 32*4096, WithPolicy(spec))
		if err != nil {
			return k.Daemon.FreeCount() == 128
		}
		for i := 0; i < 20; i++ {
			sp.Touch(e.Start + int64(rng.Intn(32))*4096) //nolint:errcheck
		}
		k.DestroyContainer(c)
		k.Clock.Advance(5 * time.Second)
		return k.Daemon.FreeCount() == 128 && k.FM.SpecificTotal() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
