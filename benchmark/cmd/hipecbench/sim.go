package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"hipec"
	"hipec/internal/workload"
)

// The §5.3 join, scaled to a 12 MB outer table over an 8 MB pool: 64 scans
// of 3072 pages with 2048 frames. The paper's model then gives 67 584 faults
// under MRU and 196 608 under LRU, and the simulator must hit both exactly.
var joinCfg = workload.JoinConfig{
	InnerBytes: 4 << 10,
	OuterBytes: 12 << 20,
	TupleSize:  64,
	PageSize:   pageSize,
	MemBytes:   8 << 20,
}

// cellAccesses is the number of simulated page accesses in one cell; one
// access is one op of sim_join.
var cellAccesses = int(joinCfg.OuterPages()) * joinCfg.Loops()

var simPolicies = [2]string{classA: "mru", classB: "lru"}

type cellResult struct {
	build, join time.Duration
	faults      int64
	cmds        int64
	ok          bool
}

// runCell builds a fresh simulated kernel, maps the outer table under the
// named policy and runs the join. ok reports the analytic-model gate.
func runCell(policy string) (cellResult, error) {
	var r cellResult
	start := time.Now()
	k := hipec.New(hipec.Config{Frames: kernFrames, StartChecker: true})
	sp := k.NewSpace()
	spec, err := hipec.PolicyByName(policy, int(joinCfg.MemBytes/pageSize))
	if err != nil {
		return r, err
	}
	obj := k.VM.NewObject(joinCfg.OuterBytes, false)
	if err := k.VM.Populate(obj, nil); err != nil {
		return r, err
	}
	e, c, err := k.Map(sp, obj, 0, obj.Size, hipec.WithPolicy(spec))
	if err != nil {
		return r, err
	}
	r.build = time.Since(start)
	res, err := workload.RunJoin(sp, e, joinCfg)
	if err != nil {
		return r, err
	}
	r.join = time.Since(start) - r.build
	if c.State() != hipec.StateActive {
		return r, fmt.Errorf("%s policy died: %s", policy, c.TerminationReason())
	}
	want := joinCfg.LRUPageFaults()
	if policy == "mru" {
		want = joinCfg.MRUPageFaults()
	}
	r.faults = res.Faults
	r.cmds = k.Executor.TotalCommands()
	r.ok = res.Faults == want && res.Hits+res.Faults == int64(cellAccesses)
	return r, nil
}

// setupSim is sim_join's set-up: one untimed cell of each policy, so that
// the window starts with the code paths and the heap warm.
func setupSim() error {
	for _, p := range simPolicies {
		if r, err := runCell(p); err != nil {
			return err
		} else if !r.ok {
			return fmt.Errorf("sim_join %s: %d faults, not the analytic count", p, r.faults)
		}
	}
	return nil
}

// simGenerator is sim_join's single closed-loop client: MRU and LRU cells
// in turn, a cell's wall time being its latency.
func simGenerator(rec *sliceRec, stop *atomic.Bool) {
	for !stop.Load() {
		for class, p := range simPolicies {
			start := time.Now()
			r, err := runCell(p)
			rec.add(class, time.Since(start), cellAccesses, err == nil && r.ok)
		}
	}
}
