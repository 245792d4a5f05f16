package hipec_test

// Facade tests for the network layer: Serve and Dial through the public
// package only, both halves of the Client seam doing the same work.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
	"testing"

	"hipec"
	"hipec/internal/substrate"
)

// One workload, two transports: the in-process Loop and the network client
// run the same Client code against kernels built the same way, and both
// round-trip payloads.
func TestClientSeamBothTransports(t *testing.T) {
	run := func(t *testing.T, c hipec.Client) {
		if c.PageSize() != 4096 {
			t.Fatalf("PageSize = %d, want 4096", c.PageSize())
		}
		r, err := c.Open(8, hipec.WithPolicySource("fifo2c", hipec.PolicyFIFOSecondChanceSource(4)))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		payload := []byte("seam payload")
		if err := c.WritePage(r, 5, payload); err != nil {
			t.Fatalf("write: %v", err)
		}
		// Arguments the wire cannot carry are the same bad request on both
		// transports: a page past 32 bits must not truncate onto page 5,
		// and a payload past the page size is not a wire encoding error.
		if strconv.IntSize == 64 {
			wrapped := int(int64(math.MaxUint32) + 1 + 5)
			if err := c.WritePage(r, wrapped, []byte("clobbered")); !errors.Is(err, hipec.ErrBadRequest) {
				t.Fatalf("write page %d: got %v, want ErrBadRequest", wrapped, err)
			}
		}
		if err := c.WritePage(r, 5, make([]byte, 70000)); !errors.Is(err, hipec.ErrBadRequest) {
			t.Fatalf("write of 70000 bytes: got %v, want ErrBadRequest", err)
		}
		buf := make([]byte, len(payload))
		n, err := c.ReadPage(r, 5, buf)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !bytes.Equal(buf[:n], payload) {
			t.Fatalf("read back %q, want %q", buf[:n], payload)
		}
		st, err := c.Stats()
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		if st.Accesses == 0 {
			t.Fatalf("stats show no traffic: %+v", st)
		}
		if err := c.FreeRegion(r); err != nil {
			t.Fatalf("free: %v", err)
		}
		if err := c.TouchPage(r, 0); !errors.Is(err, hipec.ErrBadRequest) {
			t.Fatalf("touch after free: got %v, want ErrBadRequest", err)
		}
	}

	t.Run("in-process", func(t *testing.T) {
		k := hipec.New(hipec.Config{
			Frames:        64,
			PageSize:      4096,
			BurstFraction: 0.5,
			Substrate:     hipec.SubstrateConfig{Kind: hipec.SubstrateReal},
		})
		loop := hipec.NewClient(k)
		defer loop.Close()
		run(t, loop)
	})
	t.Run("networked", func(t *testing.T) {
		store, err := hipec.NewTempFileStore("", 4096)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		srv, err := hipec.Serve("127.0.0.1:0", store, hipec.WithFrames(64))
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		c, err := hipec.Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		run(t, c)
	})
}

// brokenStore forwards to a memory store until armed; from then on every
// ReadPage fails with ErrDiskIO and is counted, so a test can read off how
// many page-in attempts one fault made.
type brokenStore struct {
	hipec.Store
	armed atomic.Bool
	reads atomic.Int64
}

func (s *brokenStore) ReadPage(key substrate.PageKey) ([]byte, bool, error) {
	if s.armed.Load() {
		s.reads.Add(1)
		return nil, true, fmt.Errorf("broken store: %w", hipec.ErrDiskIO)
	}
	return s.Store.ReadPage(key)
}

// TestOpenOptionParity: the same Open arguments must mean the same thing
// in-process and over the wire. The retry budget is observed as page-in
// attempts against a store that has started failing; a non-positive budget
// is "kernel default" on both transports, never a 32-bit wraparound, and a
// budget past the kernel's cap is capped on both.
func TestOpenOptionParity(t *testing.T) {
	const frames, pages = 16, 64
	cases := []struct {
		name     string
		pages    int
		opts     []hipec.RegionOption
		wantErr  error // from Open
		attempts int64 // page-in attempts per failing fault
	}{
		{"default budget", pages, nil, nil, 3},
		{"zero budget is the default", pages, []hipec.RegionOption{hipec.WithRegionRetryBudget(0)}, nil, 3},
		{"negative budget is the default", pages, []hipec.RegionOption{hipec.WithRegionRetryBudget(-1)}, nil, 3},
		{"explicit budget", pages, []hipec.RegionOption{hipec.WithRegionRetryBudget(2)}, nil, 2},
		{"budget past the cap", pages, []hipec.RegionOption{hipec.WithRegionRetryBudget(10)}, nil, 8},
		{"zero pages", 0, nil, hipec.ErrBadRequest, 0},
		{"negative pages", -1, nil, hipec.ErrBadRequest, 0},
	}
	transports := []struct {
		name string
		dial func(t *testing.T, store hipec.Store) hipec.Client
	}{
		{"in-process", func(t *testing.T, store hipec.Store) hipec.Client {
			return hipec.NewClient(hipec.New(hipec.Config{
				Frames: frames, PageSize: 4096, BurstFraction: 0.5,
				Substrate: hipec.SubstrateConfig{Kind: hipec.SubstrateReal, Store: store},
			}))
		}},
		{"networked", func(t *testing.T, store hipec.Store) hipec.Client {
			srv, err := hipec.Serve("127.0.0.1:0", store, hipec.WithFrames(frames))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Close)
			c, err := hipec.Dial(srv.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
	}
	for _, tc := range cases {
		for _, tr := range transports {
			t.Run(tc.name+"/"+tr.name, func(t *testing.T) {
				mem, err := hipec.OpenStore("mem", "", 4096)
				if err != nil {
					t.Fatal(err)
				}
				store := &brokenStore{Store: mem}
				c := tr.dial(t, store)
				defer c.Close()

				r, err := c.Open(tc.pages, tc.opts...)
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Open(%d) = %v, want %v", tc.pages, err, tc.wantErr)
				}
				if tc.wantErr != nil {
					return
				}
				// Dirty four pools' worth of pages so the early ones are
				// paged out, then break the store and fault one back in.
				for p := 0; p < tc.pages; p++ {
					if err := c.WritePage(r, p, []byte{byte(p)}); err != nil {
						t.Fatalf("write %d: %v", p, err)
					}
				}
				store.armed.Store(true)
				if err := c.TouchPage(r, 0); !errors.Is(err, hipec.ErrDiskIO) {
					t.Fatalf("touch on a broken store = %v, want ErrDiskIO", err)
				}
				if got := store.reads.Load(); got != tc.attempts {
					t.Fatalf("page-in attempts = %d, want %d", got, tc.attempts)
				}
			})
		}
	}
}

// The network client cannot express a region larger than the wire's 32-bit
// page count; it must say so rather than truncate.
func TestDialOpenRejectsOversizeRegion(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int cannot exceed the wire's page count on this platform")
	}
	store, err := hipec.OpenStore("mem", "", 4096)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := hipec.Serve("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := hipec.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pages := int64(math.MaxUint32) + 2 // truncates to 1 page
	huge := int(pages)
	if _, err := c.Open(huge); !errors.Is(err, hipec.ErrBadRequest) {
		t.Fatalf("Open(%d) = %v, want ErrBadRequest", huge, err)
	}
}

// TestRegionChurnDoesNotRetainContainers: a daemon opens and frees policy
// regions for as long as it runs, so a freed region's container must leave
// the kernel's inspection list; only the regions still open remain.
func TestRegionChurnDoesNotRetainContainers(t *testing.T) {
	loop := hipec.NewClient(hipec.New(hipec.Config{
		Frames: 64, PageSize: 4096, BurstFraction: 0.5,
		Substrate: hipec.SubstrateConfig{Kind: hipec.SubstrateReal},
	}))
	defer loop.Close()
	policy := hipec.WithPolicySource("fifo", hipec.PolicyFIFOSource(4))

	kept, err := loop.Open(8, policy)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for i := 0; i < 2000; i++ {
		r, err := loop.Open(8, policy)
		if err != nil {
			t.Fatalf("cycle %d: open: %v", i, err)
		}
		if err := loop.TouchPage(r, 0); err != nil {
			t.Fatalf("cycle %d: touch: %v", i, err)
		}
		if err := loop.FreeRegion(r); err != nil {
			t.Fatalf("cycle %d: free: %v", i, err)
		}
	}
	var retained int
	if err := loop.Call(func(k *hipec.Kernel) error {
		retained = len(k.Containers())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if retained != 1 {
		t.Fatalf("kernel retains %d containers after 2000 open/free cycles, want 1 (the region still open)", retained)
	}
	if err := loop.TouchPage(kept, 0); err != nil {
		t.Fatalf("surviving region: %v", err)
	}
}
