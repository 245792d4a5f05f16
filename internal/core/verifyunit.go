package core

import (
	"hipec/internal/hpl/verify"
	"hipec/internal/isa"
)

// buildUnit describes a constructed container to the static verifier: the
// event programs plus the authoritative operand contract (kinds, read-only
// and live flags, the live-counter-to-queue mapping, and the statically
// known constants that enable Comp folding).
func buildUnit(c *Container) *verify.Unit {
	u := verify.NewUnit(c.spec.Name)
	u.Events = c.events
	u.EventNames = c.spec.EventNames
	u.Extensions = c.extensions

	liveQueue := map[uint8]uint8{}
	for _, s := range isa.WellKnownSlots() {
		if s.LiveQueue != isa.SlotNoQueue {
			liveQueue[s.Slot] = s.LiveQueue
		}
	}
	for i := range c.operands {
		slot := uint8(i)
		o := &c.operands[i]
		if o.Kind == KindNone {
			// The container's table is authoritative: an undeclared slot is
			// known to hold nothing, and any typed access faults at runtime.
			// Known (not inference-mode unknown) so the verifier rejects it.
			u.Operands[i] = verify.OperandInfo{LiveQueue: isa.SlotNoQueue, Known: true}
			continue
		}
		info := verify.OperandInfo{
			Kind:      o.Kind,
			Name:      o.Name,
			ReadOnly:  o.readOnly || o.live != nil,
			Live:      o.live != nil,
			LiveQueue: isa.SlotNoQueue,
			Known:     true,
		}
		if q, ok := liveQueue[slot]; ok && info.Live {
			info.LiveQueue = q
		}
		// Only genuinely immutable integers fold: the _zero/_one builtins
		// and user-declared Const operands. Read-only fault context
		// (_fault_addr, _fault_offset) changes per activation.
		if o.Kind == KindInt && o.readOnly && o.live == nil &&
			(slot == SlotZero || slot == SlotOne || slot >= SlotUser) {
			info.HasConst = true
			info.ConstVal = o.Int
		}
		u.Operands[i] = info
	}
	return u
}

// UnitForSpec builds a verifier unit from a bare spec, constructing (but
// not registering) the container it would produce. Used by cmd/hipec,
// which verifies policies outside any kernel.
func UnitForSpec(spec *Spec) (*verify.Unit, error) {
	c, err := newContainer(nil, 0, nil, spec)
	if err != nil {
		return nil, err
	}
	return buildUnit(c), nil
}
