// Package policies provides ready-made HiPEC replacement policies written
// in HPL and compiled with the translator: the policies used throughout the
// paper's evaluation (FIFO with second chance as the Mach-equivalent
// baseline, MRU for the nested-loop join of §5.3) plus plain FIFO and LRU.
//
// Each constructor takes the container's minFrame (the private pool size
// requested from the global frame manager) and returns a validated
// core.Spec. Source accessors expose the HPL text for documentation and
// the hipec CLI.
package policies

import (
	"fmt"

	"hipec/internal/core"
	"hipec/internal/hpl"
)

// reclaimBody is the shared ReclaimFrame event: surrender a free frame,
// evicting the oldest active page first if the free list is empty.
const reclaimBody = `
event ReclaimFrame() {
    if (empty(_free_queue)) {
        fifo(_active_queue)
    }
    if (!empty(_free_queue)) {
        release(1)
    }
    return
}
`

// FIFOSecondChanceSource returns the HPL source of the paper's Figure 4
// policy (FIFO with second chance), parameterized by pool size.
func FIFOSecondChanceSource(minFrame int) string {
	return fmt.Sprintf(`
minframe = %d
free_target = %d
inactive_target = %d
reserved_target = 1

event PageFault() {
    if (_free_count > reserve_target) {
        page = de_queue_head(_free_queue)
    } else {
        activate Lack_free_frame()
        page = de_queue_head(_free_queue)
    }
    return page
}

event Lack_free_frame() {
    /* FIFO with 2nd Chance (paper Figure 4) */
    while (_inactive_count < inactive_target && !empty(_active_queue)) {
        page = de_queue_head(_active_queue)
        reset_ref(page)
        en_queue_tail(_inactive_queue, page)
    }
    while (_free_count < free_target && !empty(_inactive_queue)) {
        page = de_queue_head(_inactive_queue)
        if (referenced(page)) {
            reset_ref(page)
            en_queue_tail(_active_queue, page)
        } else {
            if (modified(page)) {
                flush(page)
            }
            en_queue_head(_free_queue, page)
        }
    }
}
`, minFrame, freeTarget(minFrame), inactiveTarget(minFrame)) + reclaimBody
}

func freeTarget(minFrame int) int {
	t := minFrame / 8
	if t < 2 {
		t = 2
	}
	return t
}

func inactiveTarget(minFrame int) int {
	t := minFrame / 3
	if t < 3 {
		t = 3
	}
	return t
}

// FIFOSecondChance compiles the paper's FIFO-with-second-chance policy.
func FIFOSecondChance(minFrame int) *core.Spec {
	return hpl.MustTranslate("fifo-2nd-chance", FIFOSecondChanceSource(minFrame))
}

// simplePolicySource builds a one-command replacement policy around a
// canned victim selector (fifo/lru/mru). Recency-based selectors keep the
// active queue in access order so victim selection is O(1).
func simplePolicySource(cmd string, minFrame int) string {
	order := ""
	if cmd == "lru" || cmd == "mru" {
		order = "access_order = 1\n"
	}
	return fmt.Sprintf(`
minframe = %d
%s
event PageFault() {
    if (empty(_free_queue)) {
        %s(_active_queue)
    }
    page = dequeue_head(_free_queue)
    return page
}
`, minFrame, order, cmd) + reclaimBody
}

// FIFOSource returns the HPL source of the plain FIFO policy.
func FIFOSource(minFrame int) string { return simplePolicySource("fifo", minFrame) }

// FIFO compiles a plain FIFO replacement policy.
func FIFO(minFrame int) *core.Spec {
	return hpl.MustTranslate("fifo", FIFOSource(minFrame))
}

// LRUSource returns the HPL source of the LRU policy.
func LRUSource(minFrame int) string { return simplePolicySource("lru", minFrame) }

// LRU compiles a least-recently-used replacement policy (the "LRU-like
// policy ... for its popularity in conventional operating systems" used as
// the baseline in §5.3).
func LRU(minFrame int) *core.Spec {
	return hpl.MustTranslate("lru", LRUSource(minFrame))
}

// MRUSource returns the HPL source of the MRU policy.
func MRUSource(minFrame int) string { return simplePolicySource("mru", minFrame) }

// MRU compiles the most-recently-used replacement policy, "the right
// solution to the nested-loop join operation" (§5.3).
func MRU(minFrame int) *core.Spec {
	return hpl.MustTranslate("mru", MRUSource(minFrame))
}

// SequentialTossSource is a scan-resistant policy for strictly sequential
// single-pass workloads (multimedia streaming): pages are recycled as soon
// as the scan moves past them, keeping the footprint at minFrame without
// ever asking the global frame manager for more.
func SequentialTossSource(minFrame int) string {
	return fmt.Sprintf(`
minframe = %d

event PageFault() {
    if (empty(_free_queue)) {
        /* Reuse the page the scan finished with: the oldest resident. */
        fifo(_active_queue)
    }
    page = dequeue_head(_free_queue)
    return page
}
`, minFrame) + reclaimBody
}

// SequentialToss compiles the streaming policy.
func SequentialToss(minFrame int) *core.Spec {
	return hpl.MustTranslate("sequential-toss", SequentialTossSource(minFrame))
}

// ClockSource is a circular second-chance ("clock") policy written in pure
// HPL with no canned replacement commands: it demonstrates that the simple
// commands alone are "flexible for application designers to program a
// specific policy" (§4.2). Pages cycle through the active queue; referenced
// pages get their bit cleared and a second lap, unreferenced ones are
// reclaimed (flushing if dirty).
func ClockSource(minFrame int) string {
	return fmt.Sprintf(`
minframe = %d

event PageFault() {
    if (empty(_free_queue)) {
        activate Sweep()
    }
    page = dequeue_head(_free_queue)
    return page
}

event Sweep() {
    while (empty(_free_queue) && !empty(_active_queue)) {
        page = dequeue_head(_active_queue)
        if (referenced(page)) {
            reset_ref(page)
            enqueue_tail(_active_queue, page)
        } else {
            if (modified(page)) {
                flush(page)
            }
            enqueue_head(_free_queue, page)
        }
    }
}
`, minFrame) + reclaimBody
}

// Clock compiles the circular second-chance policy.
func Clock(minFrame int) *core.Spec {
	return hpl.MustTranslate("clock", ClockSource(minFrame))
}

// ByName returns a policy constructor by its CLI name.
func ByName(name string, minFrame int) (*core.Spec, error) {
	switch name {
	case "fifo":
		return FIFO(minFrame), nil
	case "lru":
		return LRU(minFrame), nil
	case "mru":
		return MRU(minFrame), nil
	case "fifo2", "fifo-2nd-chance", "second-chance":
		return FIFOSecondChance(minFrame), nil
	case "sequential", "sequential-toss":
		return SequentialToss(minFrame), nil
	case "clock":
		return Clock(minFrame), nil
	}
	return nil, fmt.Errorf("policies: unknown policy %q (want fifo, lru, mru, fifo2, sequential, clock)", name)
}

// Names lists the CLI policy names.
func Names() []string {
	return []string{"fifo", "lru", "mru", "fifo2", "sequential", "clock"}
}
