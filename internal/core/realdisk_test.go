package core

import (
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"hipec/internal/disk/filestore"
	"hipec/internal/kevent"
	"hipec/internal/substrate"
)

// TestRealtimeDiskModelIsFree: on the realtime substrate the 1994 disk model
// charges nothing — page-ins cost what the store's I/O costs and dirty
// flushes write back synchronously instead of arming a completion timer.
// A policy region four times its frame budget over a file store, driven
// through the loop with ~30 % writes, must read back every stamp while the
// disk records no modeled time and leaves nothing in flight.
func TestRealtimeDiskModelIsFree(t *testing.T) {
	st, err := filestore.Open(filepath.Join(t.TempDir(), "pages.dat"), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	k := New(Config{
		Frames:        256,
		PageSize:      4096,
		BurstFraction: 0.5,
		Substrate:     substrate.Config{Kind: substrate.KindReal, Store: st},
	})
	l := NewLoop(k)
	defer l.Close()

	const budget = 16
	const pages = 4 * budget
	r, err := l.Open(pages, WithPolicySpec(simpleSpec(budget)))
	if err != nil {
		t.Fatal(err)
	}
	stamps := make([]uint64, pages) // last stamp written per page; 0 = never
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 8)
	for op := uint64(1); op <= 2000; op++ {
		page := rng.Intn(pages)
		if rng.Intn(10) < 3 {
			binary.LittleEndian.PutUint64(buf, op)
			if err := l.WritePage(r, page, buf); err != nil {
				t.Fatalf("op %d: write page %d: %v", op, page, err)
			}
			stamps[page] = op
			continue
		}
		if _, err := l.ReadPage(r, page, buf); err != nil {
			t.Fatalf("op %d: read page %d: %v", op, page, err)
		}
		if got := binary.LittleEndian.Uint64(buf); got != stamps[page] {
			t.Fatalf("op %d: page %d reads stamp %d, want %d", op, page, got, stamps[page])
		}
	}

	if err := l.Call(func(k *Kernel) error {
		if n := k.Clock.Pending(); n != 0 {
			t.Errorf("clock has %d pending timers after the burst, want 0", n)
		}
		ds := k.VM.Disk.Stats()
		if ds.ReadTime != 0 || ds.WriteTime != 0 {
			t.Errorf("disk charged ReadTime %v, WriteTime %v; want 0, 0", ds.ReadTime, ds.WriteTime)
		}
		if n := k.VM.Disk.Inflight(); n != 0 {
			t.Errorf("disk Inflight = %d, want 0", n)
		}
		// The burst must have exercised the paths it guards.
		vs := k.VM.Stats()
		if vs.PageIns == 0 || vs.PageOuts == 0 || k.FM.Stats().FlushExchanges == 0 {
			t.Errorf("burst did no paging: pageins %d, pageouts %d, flushes %d",
				vs.PageIns, vs.PageOuts, k.FM.Stats().FlushExchanges)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestZeroFillAfterPolicyEviction: a policy that evicts a clean page keeps
// the frame on its private free list without it passing through the
// machine pool (which zeroes frames), so the next zero-fill page must be
// cleared on the fault path or it reads its predecessor's bytes.
func TestZeroFillAfterPolicyEviction(t *testing.T) {
	k := New(Config{Frames: 64, PageSize: 4096, KeepData: true})
	sp := k.NewSpace()
	e, _, err := k.Allocate(sp, 3*4096, WithPolicy(simpleSpec(1)))
	if err != nil {
		t.Fatal(err)
	}
	p, err := sp.Write(e.Start)
	if err != nil {
		t.Fatal(err)
	}
	p.Data[10] = 0x77
	// Page 1 evicts dirty page 0 to the store; page 0 pages back in clean
	// and is then evicted by page 2, whose zero-fill reuses its frame.
	for _, page := range []int64{1, 0, 2} {
		if p, err = sp.Touch(e.Start + page*4096); err != nil {
			t.Fatal(err)
		}
	}
	if p.Data[10] != 0 {
		t.Fatalf("zero-fill page reads %#x, left over from the frame's last page", p.Data[10])
	}
}

// TestFlushExchangeBranches pins which branch a dirty flush takes on each
// substrate. The sim disk models write time, so the frame manager exchanges
// frames and launders the dirty one asynchronously (§4.3.1). The realtime
// disk models none, so the flush is synchronous and the policy gets its own
// frame back clean.
func TestFlushExchangeBranches(t *testing.T) {
	for _, tc := range []struct {
		name     string
		kind     substrate.Kind
		exchange bool
	}{
		{"sim", substrate.KindSim, true},
		{"real", substrate.KindReal, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := New(Config{
				Frames:        128,
				PageSize:      4096,
				BurstFraction: 0.5,
				Substrate:     substrate.Config{Kind: tc.kind},
			})
			sp := k.NewSpace()
			e, c, err := k.Allocate(sp, 8*4096, WithPolicy(simpleSpec(8)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sp.Write(e.Start); err != nil {
				t.Fatal(err)
			}
			p := c.Active.DequeueHead()
			np, ok := k.FM.FlushExchange(c, p)
			if !ok {
				t.Fatal("flush failed")
			}
			if np.Modified || np.Object != 0 {
				t.Fatalf("flush returned a frame still dirty (%v) or owned (object %d)", np.Modified, np.Object)
			}
			if got := np != p; got != tc.exchange {
				t.Fatalf("frame exchanged = %v, want %v", got, tc.exchange)
			}
			if tc.exchange {
				k.Clock.Advance(time.Second) // let the laundering write complete
			} else if n := k.Clock.Pending(); n != 0 {
				t.Fatalf("synchronous flush left %d timers pending", n)
			}
			sc := k.Registry().Global()
			want := int64(0)
			if tc.exchange {
				want = 1
			}
			if s, d := sc.Counts[kevent.EvFMLaunderStart], sc.Counts[kevent.EvFMLaunderDone]; s != want || d != want {
				t.Fatalf("launder start/done = %d/%d, want %d/%d", s, d, want, want)
			}
			if n := k.VM.Disk.Inflight(); n != 0 {
				t.Fatalf("disk Inflight = %d after the flush settled", n)
			}
		})
	}
}
