package vm

import (
	"fmt"
	"math/rand"
	"testing"

	"hipec/internal/kevent"
	"hipec/internal/mem"
	"hipec/internal/simtime"
	"hipec/internal/substrate"
)

// traceSink records every kernel event as a comparable string.
type traceSink struct {
	events []string
}

func (t *traceSink) Emit(ev kevent.Event) {
	t.events = append(t.events, fmt.Sprintf("%v %d sp=%d addr=%#x arg=%d aux=%d f=%v",
		ev.Time, ev.Type, ev.Space, ev.Addr, ev.Arg, ev.Aux, ev.Flag))
}

// greedyPolicy is a minimal replacement policy for the differential fuzz:
// allocate until the frame table is empty, then evict the head of its FIFO
// queue. It is fully deterministic given the access sequence.
type greedyPolicy struct {
	sys   *System
	queue *mem.Queue
}

func (g *greedyPolicy) Name() string { return "fuzz-greedy" }
func (g *greedyPolicy) PageFor(f *Fault) (*mem.Page, error) {
	if p := g.sys.Frames.Alloc(); p != nil {
		return p, nil
	}
	victim := g.queue.DequeueHead()
	if victim == nil {
		return nil, ErrNoMemory
	}
	if victim.Modified {
		if err := g.sys.PageOutSync(victim); err != nil {
			return nil, err
		}
	}
	g.sys.Detach(victim)
	return victim, nil
}
func (g *greedyPolicy) Installed(f *Fault, p *mem.Page) { g.queue.EnqueueTail(p) }
func (g *greedyPolicy) Release(p *mem.Page) {
	if p.Queue() == g.queue {
		g.queue.Remove(p)
	}
}

// buildFuzzSystem constructs a small deterministic system with the given
// page-table mode and returns it with its trace sink.
func buildFuzzSystem(forceSparse bool) (*System, *traceSink) {
	clock := simtime.NewClock()
	s := NewSystem(substrate.Sim(clock), Config{Frames: 24, PageSize: 4096})
	s.forceSparse = forceSparse
	sink := &traceSink{}
	s.Events.Attach(sink)
	s.SetDefaultPolicy(&greedyPolicy{sys: s, queue: mem.NewQueue("fuzz")})
	return s, sink
}

// driveFuzz applies a seeded random schedule of touches, writes, evict
// pressure, unmaps, remaps and object destruction to the system. Both
// page-table modes see the exact same schedule.
func driveFuzz(t *testing.T, s *System, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sp := s.NewSpace()
	const ps = 4096

	type region struct {
		e *MapEntry
		o *Object
	}
	var regions []region
	newRegion := func() {
		pages := int64(rng.Intn(12) + 1)
		o := s.NewObject(pages*ps, rng.Intn(2) == 0)
		if !o.ZeroFill {
			if err := s.Populate(o, nil); err != nil {
				t.Fatal(err)
			}
		}
		e, err := sp.Map(o, 0, pages*ps)
		if err != nil {
			t.Fatalf("map: %v", err)
		}
		regions = append(regions, region{e, o})
	}
	for i := 0; i < 3; i++ {
		newRegion()
	}

	for op := 0; op < 600; op++ {
		switch rng.Intn(12) {
		case 0: // map a fresh region
			if len(regions) < 8 {
				newRegion()
			}
		case 1: // unmap + destroy a region
			if len(regions) > 1 {
				i := rng.Intn(len(regions))
				r := regions[i]
				if err := sp.Unmap(r.e); err != nil {
					t.Fatalf("unmap: %v", err)
				}
				s.DestroyObject(r.o)
				regions = append(regions[:i], regions[i+1:]...)
			}
		case 2: // out-of-range access
			if _, err := sp.Touch(int64(1) << 40); err == nil {
				t.Fatal("expected bad address")
			}
		default: // touch or write within a random region
			r := regions[rng.Intn(len(regions))]
			addr := r.e.Start + int64(rng.Intn(int(r.e.Size()/ps)))*ps + int64(rng.Intn(ps))
			var err error
			if rng.Intn(3) == 0 {
				_, err = sp.Write(addr)
			} else {
				_, err = sp.Touch(addr)
			}
			if err != nil {
				t.Fatalf("access %#x: %v", addr, err)
			}
		}
	}
}

// TestFlatSparseDifferentialFuzz drives identical random fault/evict/unmap
// schedules through a flat-pmap system and a forced-sparse (map-backed
// reference) system and requires byte-identical event traces — the
// data-plane swap must be observationally invisible.
func TestFlatSparseDifferentialFuzz(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			flatSys, flatTrace := buildFuzzSystem(false)
			sparseSys, sparseTrace := buildFuzzSystem(true)
			driveFuzz(t, flatSys, seed)
			driveFuzz(t, sparseSys, seed)
			if len(flatTrace.events) != len(sparseTrace.events) {
				t.Fatalf("trace lengths differ: flat %d, sparse %d",
					len(flatTrace.events), len(sparseTrace.events))
			}
			for i := range flatTrace.events {
				if flatTrace.events[i] != sparseTrace.events[i] {
					t.Fatalf("traces diverge at event %d:\n  flat:   %s\n  sparse: %s",
						i, flatTrace.events[i], sparseTrace.events[i])
				}
			}
			if flatTrace.events[len(flatTrace.events)-1] == "" {
				t.Fatal("empty trace entry")
			}
		})
	}
}

// TestFlatPmapModeSelection pins the dense/sparse choice: ordinary objects
// get the flat table, oversized ones and forced-sparse systems get the map.
func TestFlatPmapModeSelection(t *testing.T) {
	s, _ := buildFuzzSystem(false)
	if o := s.NewObject(64*4096, true); o.flat == nil || o.sparse != nil {
		t.Fatal("small object did not get a flat table")
	}
	if o := s.NewObject((flatMaxPages+1)*4096, true); o.sparse == nil || o.flat != nil {
		t.Fatal("oversized object did not fall back to sparse")
	}
	s.forceSparse = true
	if o := s.NewObject(64*4096, true); o.sparse == nil {
		t.Fatal("forceSparse ignored")
	}
}

// TestObjectIDsNeverReused pins the generation property of the object
// table: destroying objects must not recycle their IDs, so a stale ID
// resolves to nil rather than to a different object.
func TestObjectIDsNeverReused(t *testing.T) {
	s, _ := buildFuzzSystem(false)
	a := s.NewObject(4096, true)
	s.DestroyObject(a)
	b := s.NewObject(4096, true)
	if b.ID == a.ID {
		t.Fatalf("object ID %d reused after destroy", a.ID)
	}
	if got := s.Object(a.ID); got != nil {
		t.Fatalf("stale ID %d resolved to %+v", a.ID, got)
	}
	if got := s.Object(b.ID); got != b {
		t.Fatal("live ID did not resolve")
	}
	if got := s.Object(1 << 30); got != nil {
		t.Fatal("out-of-range ID resolved")
	}
}

// buildQuietSystem is buildFuzzSystem without the string-building trace
// sink, for allocation measurements.
func buildQuietSystem() *System {
	s := NewSystem(substrate.NewSimClock(), Config{Frames: 24, PageSize: 4096})
	s.SetDefaultPolicy(&greedyPolicy{sys: s, queue: mem.NewQueue("fuzz")})
	return s
}

// TestResidentHitPathDoesNotAllocate pins the tentpole's 0-alloc claim at
// the vm layer: a resident read/write hit performs no heap allocation.
func TestResidentHitPathDoesNotAllocate(t *testing.T) {
	s := buildQuietSystem()
	sp := s.NewSpace()
	o := s.NewObject(16*4096, true)
	e, err := sp.Map(o, 0, 16*4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Touch(e.Start); err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := sp.Touch(e.Start); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("resident hit allocates %.1f/op, want 0", avg)
	}
}

// TestFaultPathDoesNotAllocateFaultRecords pins the pooled-Fault change:
// steady-state faulting (hit + evict + zero-fill refault) must not allocate
// Fault records. The policy itself is allocation-free, so the only
// allocations permitted are none.
func TestFaultPathDoesNotAllocateFaultRecords(t *testing.T) {
	s := buildQuietSystem()
	sp := s.NewSpace()
	// More pages than frames so every touch in the cycle faults.
	o := s.NewObject(64*4096, true)
	e, err := sp.Map(o, 0, 64*4096)
	if err != nil {
		t.Fatal(err)
	}
	addr, step := e.Start, int64(4096)
	// Prime: cycle through all pages once so the frame pool is exhausted
	// and the steady state is fault+evict.
	for i := int64(0); i < 64; i++ {
		if _, err := sp.Touch(e.Start + i*step); err != nil {
			t.Fatal(err)
		}
	}
	i := int64(0)
	if avg := testing.AllocsPerRun(500, func() {
		if _, err := sp.Touch(addr + (i%64)*step); err != nil {
			t.Fatal(err)
		}
		i++
	}); avg != 0 {
		t.Fatalf("fault path allocates %.2f/op, want 0", avg)
	}
}

// BenchmarkResidentHit compares the flat page table against the sparse
// reference on the resident-hit path: 1024 resident pages touched in a
// cycle, no policy activation.
func BenchmarkResidentHit(b *testing.B) {
	for _, mode := range []struct {
		name   string
		sparse bool
	}{{"flat", false}, {"sparse", true}} {
		b.Run(mode.name, func(b *testing.B) {
			s := NewSystem(substrate.NewSimClock(), Config{Frames: 2048, PageSize: 4096})
			s.forceSparse = mode.sparse
			s.SetDefaultPolicy(&greedyPolicy{sys: s, queue: mem.NewQueue("bench")})
			sp := s.NewSpace()
			e, err := sp.Allocate(1024 * 4096)
			if err != nil {
				b.Fatal(err)
			}
			for a := e.Start; a < e.End; a += 4096 {
				if _, err := sp.Touch(a); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			a := e.Start
			for i := 0; i < b.N; i++ {
				if _, err := sp.Touch(a); err != nil {
					b.Fatal(err)
				}
				if a += 4096; a >= e.End {
					a = e.Start
				}
			}
		})
	}
}
