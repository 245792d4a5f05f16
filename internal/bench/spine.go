package bench

import (
	"fmt"
	"io"

	"hipec/internal/core"
	"hipec/internal/kevent"
	"hipec/internal/policies"
)

// SpineSmokeConfig sizes the canonical deterministic workload used to
// exercise the kernel event spine end to end (CaptureEventLog, the
// replaydiff CI smoke, and the golden-report test share it).
type SpineSmokeConfig struct {
	Frames  int // machine size
	Touches int // references per phase
}

// DefaultSpineSmoke returns the full-size smoke workload.
func DefaultSpineSmoke() SpineSmokeConfig { return SpineSmokeConfig{Frames: 512, Touches: 20000} }

// QuickSpineSmoke returns the -quick scaling.
func QuickSpineSmoke() SpineSmokeConfig { return SpineSmokeConfig{Frames: 512, Touches: 4000} }

// RunSpineSmoke drives a small deterministic mixed workload — a plain
// daemon-managed task thrashing more pages than memory, a HiPEC MRU region
// cycling its working set, and a sprinkling of bad addresses — with the
// given sinks attached to the kernel spine. It returns the kernel for
// post-run inspection. Every run with the same config produces an
// identical event stream.
func RunSpineSmoke(cfg SpineSmokeConfig, sinks ...kevent.Sink) (*core.Kernel, error) {
	k := core.New(core.Config{Frames: cfg.Frames, StartChecker: true, Sinks: sinks})
	ps := int64(k.VM.PageSize())

	// Plain task under the default daemon: a region twice machine size,
	// written sequentially with wrap-around so the daemon balances, flushes
	// dirty pages, and reclaims.
	plain := k.NewSpace()
	plainPages := int64(2 * cfg.Frames)
	pe, err := plain.Allocate(plainPages * ps)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Touches; i++ {
		addr := pe.Start + (int64(i*7)%plainPages)*ps
		if i%3 == 0 {
			_, err = plain.Write(addr)
		} else {
			_, err = plain.Touch(addr)
		}
		if err != nil {
			return nil, err
		}
	}

	// Specific task: an MRU-managed region cycled sequentially (the
	// paper's pathological-for-LRU pattern), sized over its minFrame so
	// the policy requests, flushes and reclaims.
	hip := k.NewSpace()
	he, hc, err := k.Allocate(hip, 256*ps, core.WithPolicy(policies.MRU(64)))
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Touches/2; i++ {
		addr := he.Start + (int64(i)%256)*ps
		if i%4 == 0 {
			_, err = hip.Write(addr)
		} else {
			_, err = hip.Touch(addr)
		}
		if err != nil {
			return nil, err
		}
	}

	// Bad addresses: accesses outside any mapped region.
	for i := 0; i < 5; i++ {
		if _, err := plain.Touch(int64(1<<40) + int64(i)*ps); err == nil {
			return nil, fmt.Errorf("bench: bad-address touch unexpectedly succeeded")
		}
	}

	// Teardown paths: destroy the HiPEC container so frames return.
	k.DestroyContainer(hc)
	return k, nil
}

// CaptureEventLog runs the spine smoke workload with a streaming event-log
// sink attached to the kernel spine and serializes every event to w. It
// reports the number of events captured. Two runs with the same quick flag
// produce byte-identical logs (experiments replaydiff verifies this in CI).
func CaptureEventLog(w io.Writer, quick bool) (int64, error) {
	cfg := DefaultSpineSmoke()
	if quick {
		cfg = QuickSpineSmoke()
	}
	lw := kevent.NewLogWriter(w)
	if _, err := RunSpineSmoke(cfg, lw); err != nil {
		return 0, err
	}
	if err := lw.Flush(); err != nil {
		return 0, err
	}
	return lw.Events(), nil
}
