package pageout

import (
	"testing"
	"testing/quick"
	"time"

	"hipec/internal/mem"
	"hipec/internal/simtime"
	"hipec/internal/substrate"
	"hipec/internal/vm"
)

func newSys(frames int) (*simtime.Clock, *vm.System, *Daemon) {
	clock := simtime.NewClock()
	sys := vm.NewSystem(substrate.Sim(clock), vm.Config{Frames: frames, PageSize: 4096})
	d := New(sys, Targets{})
	sys.SetDefaultPolicy(d)
	return clock, sys, d
}

func TestDefaultTargetsSane(t *testing.T) {
	tg := DefaultTargets(16384)
	if tg.Reserved <= 0 || tg.Free <= tg.Reserved || tg.Inactive <= tg.Free {
		t.Fatalf("targets not ordered: %+v", tg)
	}
}

func TestFaultsFillActiveQueue(t *testing.T) {
	_, sys, d := newSys(64)
	sp := sys.NewSpace()
	e, _ := sp.Allocate(10 * 4096)
	for a := e.Start; a < e.End; a += 4096 {
		if _, err := sp.Touch(a); err != nil {
			t.Fatal(err)
		}
	}
	if d.Active.Len() != 10 {
		t.Fatalf("active = %d, want 10", d.Active.Len())
	}
}

func TestBalanceReclaimsUnreferenced(t *testing.T) {
	_, sys, d := newSys(32)
	sp := sys.NewSpace()
	e, _ := sp.Allocate(20 * 4096)
	for a := e.Start; a < e.End; a += 4096 {
		sp.Touch(a)
	}
	free := d.FreeCount()
	d.Targets.Free = free + 5
	d.Targets.Inactive = 8
	d.Balance()
	if d.FreeCount() < free+5 {
		t.Fatalf("free = %d, want >= %d", d.FreeCount(), free+5)
	}
	if d.Stats().Deactivations == 0 || d.Stats().Reclaims == 0 {
		t.Fatalf("stats = %+v", d.Stats())
	}
}

func TestSecondChancePreservesReferencedPages(t *testing.T) {
	_, sys, d := newSys(32)
	sp := sys.NewSpace()
	e, _ := sp.Allocate(10 * 4096)
	for a := e.Start; a < e.End; a += 4096 {
		sp.Touch(a)
	}
	// Deactivate everything, then re-reference pages 0 and 1.
	d.Targets.Inactive = 10
	d.Balance()
	sp.Touch(e.Start)
	sp.Touch(e.Start + 4096)
	hot0 := e.Object.Resident(0)
	hot1 := e.Object.Resident(4096)
	d.Targets.Free = d.FreeCount() + 8
	d.Balance()
	// Second chance: the referenced pages survive the reclaim pass (they
	// may end up on either queue depending on refill order, as in Mach's
	// vm_pageout_scan), while exactly 8 unreferenced pages are freed.
	if d.Stats().Reactivations < 2 {
		t.Fatalf("Reactivations = %d, want >= 2", d.Stats().Reactivations)
	}
	if e.Object.Resident(0) == nil || e.Object.Resident(4096) == nil {
		t.Fatal("hot pages were evicted")
	}
	if hot0.Queue() == nil || hot1.Queue() == nil {
		t.Fatal("hot pages fell off all queues")
	}
}

func TestDirtyPagesFlushedOnReclaim(t *testing.T) {
	clock, sys, d := newSys(32)
	sp := sys.NewSpace()
	e, _ := sp.Allocate(10 * 4096)
	for a := e.Start; a < e.End; a += 4096 {
		sp.Write(a)
	}
	d.Targets.Inactive = 10
	d.Targets.Free = d.FreeCount() + 10
	d.Balance() // deactivate
	d.Balance() // reclaim (all unreferenced after first pass cleared bits? second chance consumed)
	if d.Stats().Flushes == 0 {
		t.Fatalf("no dirty pages flushed; stats = %+v", d.Stats())
	}
	if sys.Stats().PageOuts == 0 {
		t.Fatal("PageOuts not counted")
	}
	clock.Advance(time.Second) // drain async writes
	if sys.Disk.Inflight() != 0 {
		t.Fatal("flush writes never completed")
	}
}

func TestSteadyStateUnderPressure(t *testing.T) {
	_, sys, d := newSys(16)
	sp := sys.NewSpace()
	e, _ := sp.Allocate(64 * 4096)
	for round := 0; round < 3; round++ {
		for a := e.Start; a < e.End; a += 4096 {
			if _, err := sp.Touch(a); err != nil {
				t.Fatalf("round %d addr %#x: %v", round, a, err)
			}
		}
	}
	if err := d.Active.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := d.Inactive.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every frame is free, queued, or resident-wired: conservation.
	loose := map[*mem.Page]bool{}
	e.Object.EachResident(func(off int64, p *mem.Page) bool {
		if p.Queue() == nil {
			loose[p] = true
		}
		return true
	})
	if err := sys.Frames.Conservation([]*mem.Queue{d.Active, d.Inactive}, loose); err != nil {
		t.Fatal(err)
	}
}

func TestTakeFreeHonorsReserve(t *testing.T) {
	_, _, d := newSys(64)
	got := d.TakeFree(1000) // far more than exists
	if len(got) == 0 {
		t.Fatal("TakeFree returned nothing")
	}
	if d.FreeCount() > d.Targets.Reserved {
		// fine: it stopped early with frames to spare
		t.Logf("free=%d reserve=%d", d.FreeCount(), d.Targets.Reserved)
	}
	if len(got)+d.FreeCount() > 64 {
		t.Fatal("TakeFree fabricated frames")
	}
	for _, p := range got {
		d.ReturnFrame(p)
	}
	if d.FreeCount() != 64 {
		t.Fatalf("free = %d after returning all, want 64", d.FreeCount())
	}
}

func TestTakeFreeStealsFromResident(t *testing.T) {
	_, sys, d := newSys(32)
	sp := sys.NewSpace()
	e, _ := sp.Allocate(28 * 4096)
	for a := e.Start; a < e.End; a += 4096 {
		sp.Touch(a)
	}
	d.Targets.Inactive = 16
	freeBefore := d.FreeCount()
	got := d.TakeFree(freeBefore + 8) // must steal at least 8 resident pages
	if len(got) < freeBefore {
		t.Fatalf("TakeFree returned %d, want >= %d", len(got), freeBefore)
	}
	if sys.Stats().Evictions == 0 {
		t.Fatal("no residents were stolen")
	}
	for _, p := range got {
		d.ReturnFrame(p)
	}
}

func TestStartPeriodicBalances(t *testing.T) {
	clock, sys, d := newSys(32)
	sp := sys.NewSpace()
	e, _ := sp.Allocate(30 * 4096)
	for a := e.Start; a < e.End; a += 4096 {
		sp.Touch(a)
	}
	d.Targets.Free = d.FreeCount() + 5
	d.Targets.Inactive = 8
	before := d.Stats().Balances
	d.StartPeriodic(100 * time.Millisecond)
	clock.Advance(350 * time.Millisecond)
	if d.Stats().Balances <= before {
		t.Fatal("periodic daemon never balanced")
	}
	if d.FreeCount() < d.Targets.Free {
		t.Fatalf("free = %d below target %d after periodic balance", d.FreeCount(), d.Targets.Free)
	}
}

// Property: any access pattern against a small memory keeps the queues
// valid and conserves frames.
func TestPropertyRandomAccessConservation(t *testing.T) {
	f := func(seed uint32, steps uint8) bool {
		_, sys, d := newSys(8)
		sp := sys.NewSpace()
		e, _ := sp.Allocate(32 * 4096)
		addr := e.Start
		state := uint64(seed) | 1
		for i := 0; i < int(steps)+16; i++ {
			state = state*6364136223846793005 + 1442695040888963407
			pageIdx := int64(state>>33) % 32
			addr = e.Start + pageIdx*4096
			if state&(1<<5) != 0 {
				if _, err := sp.Write(addr); err != nil {
					return false
				}
			} else if _, err := sp.Touch(addr); err != nil {
				return false
			}
		}
		if d.Active.Validate() != nil || d.Inactive.Validate() != nil {
			return false
		}
		loose := map[*mem.Page]bool{}
		e.Object.EachResident(func(off int64, p *mem.Page) bool {
			if p.Queue() == nil {
				loose[p] = true
			}
			return true
		})
		return sys.Frames.Conservation([]*mem.Queue{d.Active, d.Inactive}, loose) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSteadyStateBalanceLoopDoesNotAllocate pins the daemon's steady-state
// hot loop at zero heap allocations: under memory pressure every touch
// faults, runs PageFor -> Balance -> reclaim, and installs the page, and
// none of it may allocate. Clean zero-fill pages are used so the loop
// exercises deactivate/reclaim without the (allocating) disk write path.
func TestSteadyStateBalanceLoopDoesNotAllocate(t *testing.T) {
	_, sys, d := newSys(16)
	sp := sys.NewSpace()
	e, err := sp.Allocate(64 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Prime: cycle every page once so queues, counters and the free pool
	// reach steady state before measuring.
	for a := e.Start; a < e.End; a += 4096 {
		if _, err := sp.Touch(a); err != nil {
			t.Fatal(err)
		}
	}
	// One run over the whole loop: AllocsPerRun truncates its average to an
	// integer, so per touch an allocation on a path taken less than once a
	// touch (Balance runs only when the free pool reaches reserve, a boxed
	// offset allocates only past 255) would read as zero.
	if n := testing.AllocsPerRun(1, func() {
		for i := int64(0); i < 2000; i++ {
			if _, err := sp.Touch(e.Start + (i%64)*4096); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Fatalf("2000 steady-state touches allocate %.0f times, want 0", n)
	}
	if d.Stats().Balances == 0 || d.Stats().Reclaims == 0 {
		t.Fatalf("loop never balanced: %+v", d.Stats())
	}
}

// TestTakeFreeIntoReusesScratch pins the frame-manager grant path's
// supplier: repeatedly taking frames into a caller-owned buffer and
// returning them must not allocate.
func TestTakeFreeIntoReusesScratch(t *testing.T) {
	_, _, d := newSys(64)
	buf := make([]*mem.Page, 0, 8)
	if avg := testing.AllocsPerRun(200, func() {
		buf = d.TakeFreeInto(buf[:0], 4)
		if len(buf) != 4 {
			t.Fatalf("took %d frames, want 4", len(buf))
		}
		for _, p := range buf {
			d.ReturnFrame(p)
		}
	}); avg != 0 {
		t.Fatalf("TakeFreeInto allocates %.2f/op, want 0", avg)
	}
}
