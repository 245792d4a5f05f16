package bench

import (
	"encoding/json"
	"runtime"
	"time"

	"hipec/internal/core"
	"hipec/internal/kevent"
	"hipec/internal/pageout"
	"hipec/internal/policies"
	"hipec/internal/substrate"
	"hipec/internal/vm"
)

// PerfReport is the machine-readable output of MeasurePerf (the
// experiments -bench-json mode): wall-clock throughput of the parallel
// sweep harness plus the interpreted-command hot path, on this host.
// Unlike everything else in this package the numbers are real time, not
// virtual time, so they vary by machine; the report records the host
// shape alongside.
type PerfReport struct {
	GOMAXPROCS  int `json:"gomaxprocs"`
	Parallelism int `json:"parallelism"`

	// Sweep harness: a reduced Figure 5 grid (3 mixes x 4 user counts).
	// At parallelism 1 the parallel and serial configurations are the same
	// run, so no speedup is measurable: the serial re-run is skipped and
	// SweepSerialWallS/SweepSpeedup report 0 ("n/a") instead of a noise
	// ratio of two identical measurements.
	SweepCells       int     `json:"sweep_cells"`
	SweepWallSeconds float64 `json:"sweep_wall_seconds"`
	SweepCellsPerSec float64 `json:"sweep_cells_per_sec"`
	SweepSerialWallS float64 `json:"sweep_serial_wall_seconds"`
	SweepSpeedup     float64 `json:"sweep_speedup_vs_serial"`

	// Executor hot path: the simple-fault activation with calibrated
	// costs charged, i.e. the path every simulated page fault takes.
	ExecutorRuns         int     `json:"executor_runs"`
	ExecutorNsPerRun     float64 `json:"executor_ns_per_run"`
	ExecutorNsPerCommand float64 `json:"executor_ns_per_command"`
	ExecutorAllocsPerRun float64 `json:"executor_allocs_per_run"`

	// Event spine overhead: the same loop with no sink attached (the
	// registry alone) versus with a counting sink attached to the spine.
	SpineNsPerCommandNoSink   float64 `json:"spine_ns_per_command_no_sink"`
	SpineNsPerCommandCounting float64 `json:"spine_ns_per_command_counting_sink"`
	SpineEventsCounted        int64   `json:"spine_events_counted"`

	// Data plane: the resident-hit fast path (translate + page-table
	// probe, no policy activation) on the flat page-indexed table;
	// allocs must be zero.
	ResidentHitNsFlat      float64 `json:"resident_hit_ns_flat"`
	ResidentHitAllocsPerOp float64 `json:"resident_hit_allocs_per_op"`

	// Sharded multi-kernel scale: GOMAXPROCS independent kernels run to
	// completion on as many goroutines, each a full simulated machine on
	// its own virtual clock; the headline is simulated page faults
	// retired per wall-clock second across the fleet.
	Shards           int     `json:"shards"`
	ShardFaults      int64   `json:"shard_faults_total"`
	ShardWallSeconds float64 `json:"shard_wall_seconds"`
	FaultsPerSec     float64 `json:"faults_per_sec"`
}

// JSON renders the report with stable field order and indentation.
func (r PerfReport) JSON() string {
	b, _ := json.MarshalIndent(r, "", "  ")
	return string(b) + "\n"
}

func perfSweepConfig() Figure5Config {
	return Figure5Config{Frames: 2048, UserCounts: []int{1, 2, 4, 8}, JobsPerUser: 2}
}

// MeasurePerf times the reduced Figure 5 sweep at the configured
// parallelism and again at one worker, then the executor fault path.
func MeasurePerf() (PerfReport, error) {
	r := PerfReport{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: Parallelism(),
		SweepCells:  3 * len(perfSweepConfig().UserCounts),
	}

	start := time.Now()
	if _, err := RunFigure5(perfSweepConfig()); err != nil {
		return r, err
	}
	r.SweepWallSeconds = time.Since(start).Seconds()
	r.SweepCellsPerSec = float64(r.SweepCells) / r.SweepWallSeconds

	if saved := Parallelism(); saved > 1 {
		SetParallelism(1)
		start = time.Now()
		_, err := RunFigure5(perfSweepConfig())
		SetParallelism(saved)
		if err != nil {
			return r, err
		}
		r.SweepSerialWallS = time.Since(start).Seconds()
		if r.SweepWallSeconds > 0 {
			r.SweepSpeedup = r.SweepSerialWallS / r.SweepWallSeconds
		}
	}

	if err := measureExecutor(&r); err != nil {
		return r, err
	}
	if err := measureSpine(&r); err != nil {
		return r, err
	}
	if err := measureResidentHit(&r); err != nil {
		return r, err
	}
	if err := measureSharded(&r); err != nil {
		return r, err
	}
	return r, nil
}

// residentHitLoop times the resident-hit path — the most common memory
// operation the simulator models — and reports ns/op and allocs/op.
func residentHitLoop() (nsPerOp, allocsPerOp float64, err error) {
	clock := substrate.NewSimClock()
	sys := vm.NewSystem(clock, vm.Config{Frames: 2048, PageSize: 4096})
	d := pageout.New(sys, pageout.Targets{})
	sys.SetDefaultPolicy(d)
	sp := sys.NewSpace()
	e, err := sp.Allocate(1024 * 4096)
	if err != nil {
		return 0, 0, err
	}
	// Make every page resident so the measured loop is pure hits.
	for a := e.Start; a < e.End; a += 4096 {
		if _, err := sp.Touch(a); err != nil {
			return 0, 0, err
		}
	}
	const iters = 2000000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	a := e.Start
	for i := 0; i < iters; i++ {
		if _, err := sp.Touch(a); err != nil {
			return 0, 0, err
		}
		a += 4096
		if a >= e.End {
			a = e.Start
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(wall.Nanoseconds()) / iters,
		float64(after.Mallocs-before.Mallocs) / iters, nil
}

// measureResidentHit reports the resident-hit path, best-of-reps.
func measureResidentHit(r *PerfReport) error {
	const reps = 5
	for i := 0; i < reps; i++ {
		ns, allocs, err := residentHitLoop()
		if err != nil {
			return err
		}
		if i == 0 || ns < r.ResidentHitNsFlat {
			r.ResidentHitNsFlat, r.ResidentHitAllocsPerOp = ns, allocs
		}
	}
	return nil
}

// measureSharded runs the multi-kernel fleet once and records the
// faults/sec-at-scale headline.
func measureSharded(r *PerfReport) error {
	shards := runtime.GOMAXPROCS(0)
	res, err := RunSharded(ShardedConfig{Shards: shards, Seed: 1})
	if err != nil {
		return err
	}
	r.Shards = shards
	r.ShardFaults = res.Faults
	r.ShardWallSeconds = res.WallSeconds
	r.FaultsPerSec = res.FaultsPerSec
	return nil
}

// executorLoop drives the simple-fault PageFault program in a tight loop
// with the calibrated virtual costs charged, optionally with extra sinks
// attached to the kernel spine. It reports wall time, commands interpreted,
// and heap allocations per run.
func executorLoop(iters int, sinks ...kevent.Sink) (wall time.Duration, cmds int64, allocsPerRun float64, err error) {
	k := core.New(core.Config{Frames: 4096, Sinks: sinks})
	sp := k.NewSpace()
	e, c, err := k.Allocate(sp, 64*4096, core.WithPolicy(policies.FIFO(64)))
	if err != nil {
		return 0, 0, 0, err
	}
	if _, err := sp.Touch(e.Start); err != nil {
		return 0, 0, 0, err
	}
	reg := c.Operand(core.SlotPageReg)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cmds0 := k.Executor.TotalCommands()
	start := time.Now()
	for i := 0; i < iters; i++ {
		res, err := k.Executor.Run(c, core.EventPageFault)
		if err != nil {
			return 0, 0, 0, err
		}
		c.Free.EnqueueHead(res.Page)
		reg.Page = nil
	}
	wall = time.Since(start)
	runtime.ReadMemStats(&after)
	cmds = k.Executor.TotalCommands() - cmds0
	allocsPerRun = float64(after.Mallocs-before.Mallocs) / float64(iters)
	return wall, cmds, allocsPerRun, nil
}

// measureExecutor reports the plain hot path (registry only, no sinks),
// best-of-reps so the benchguard regression gate compares signal rather
// than scheduler noise.
func measureExecutor(r *PerfReport) error {
	const iters = 500000
	const reps = 5
	for i := 0; i < reps; i++ {
		wall, cmds, allocs, err := executorLoop(iters)
		if err != nil {
			return err
		}
		nsPerCmd := float64(wall.Nanoseconds()) / float64(cmds)
		if i == 0 || nsPerCmd < r.ExecutorNsPerCommand {
			r.ExecutorRuns = iters
			r.ExecutorNsPerRun = float64(wall.Nanoseconds()) / iters
			r.ExecutorNsPerCommand = nsPerCmd
			r.ExecutorAllocsPerRun = allocs
		}
	}
	r.SpineNsPerCommandNoSink = r.ExecutorNsPerCommand
	return nil
}

// measureSpine re-runs the loop with a counting sink attached, recording
// the per-command cost of having a spine consumer.
func measureSpine(r *PerfReport) error {
	const iters = 500000
	var counting kevent.Counting
	wall, cmds, _, err := executorLoop(iters, &counting)
	if err != nil {
		return err
	}
	r.SpineNsPerCommandCounting = float64(wall.Nanoseconds()) / float64(cmds)
	r.SpineEventsCounted = counting.N
	return nil
}
