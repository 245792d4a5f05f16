// Command experiments regenerates every table and figure of the paper's
// evaluation section (§5) and prints them next to the published numbers.
//
// Usage:
//
//	experiments                 # run everything at paper scale
//	experiments -run table3     # one experiment: table3, table4, figure5, figure6
//	experiments -run figure6 -scale 64   # scaled-down quick look
//	experiments -quick          # everything, scaled for a fast smoke run
//	experiments -j 4            # fan sweep cells out over 4 workers
//	experiments -bench-json BENCH_0001.json   # write host perf numbers
//	experiments -event-log run.kevlog         # capture the smoke workload's
//	                                          # kernel event stream
//	experiments replaydiff A.kevlog B.kevlog  # first divergent event of two logs
//	experiments benchguard -old BENCH_0004.json -new bench.json
//	                                          # gate a -bench-json report
//	experiments -chaos seed=3           # seeded fault-injection soak with
//	                                    # invariant checks; add -event-log
//	                                    # to capture its event stream
//
// Sweeps fan out over a worker pool (every cell simulates its own kernel
// on its own virtual clock), so -j only changes wall-clock time: the
// printed tables and figures are byte-identical at any parallelism.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"hipec/internal/bench"
	"hipec/internal/kevent"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "replaydiff":
			os.Exit(replaydiff(os.Args[2:], os.Stdout, os.Stderr))
		case "benchguard":
			os.Exit(benchguard(os.Args[2:], os.Stdout, os.Stderr))
		}
	}
	var (
		run       = flag.String("run", "all", "which experiment: all, table3, table4, figure5, figure6, ablation")
		scale     = flag.Int64("scale", 1, "divide figure6 sizes by this factor for quick runs")
		quick     = flag.Bool("quick", false, "scale everything down for a fast smoke run")
		users     = flag.Int("users", 15, "maximum simulated users for figure5")
		jobs      = flag.Int("jobs", 6, "jobs per user for figure5")
		workers   = flag.Int("j", 0, "sweep worker count (0 = GOMAXPROCS); output is identical at any -j")
		benchJSON = flag.String("bench-json", "", "measure host performance (sweep cells/sec, executor ns/command, allocs) and write the JSON report to this file")
		eventLog  = flag.String("event-log", "", "run the deterministic smoke workload and write its kernel event log to this file (diff two runs with experiments replaydiff)")
		chaos     = flag.String("chaos", "", "run the seeded chaos soak (fault injection + graceful degradation): \"seed=N\" or a bare seed number")
		shards    = flag.Int("shards", 0, "run N independent kernels on N goroutines (the sharded scale harness) and print merged metrics; with -event-log, capture shard 0's stream")
		shardSeed = flag.Uint64("shard-seed", 0, "master seed for the sharded harness's per-shard scatter phases (0 = every shard runs the canonical workload)")
		shardSer  = flag.Bool("shard-serial", false, "run the shards sequentially on one goroutine (results are identical; only wall time changes)")
	)
	flag.Parse()
	bench.SetParallelism(*workers)

	if *shards > 0 {
		cfg := bench.ShardedConfig{
			Shards: *shards,
			Seed:   *shardSeed,
			Quick:  *quick,
			Serial: *shardSer,
		}
		var lw *kevent.LogWriter
		var f *os.File
		if *eventLog != "" {
			var err error
			f, err = os.Create(*eventLog)
			if err != nil {
				fmt.Fprintf(os.Stderr, "shards: %v\n", err)
				os.Exit(1)
			}
			lw = kevent.NewLogWriter(f)
			cfg.Shard0Sink = lw
		}
		res, err := bench.RunSharded(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shards: %v\n", err)
			os.Exit(1)
		}
		if lw != nil {
			if err := lw.Flush(); err == nil {
				err = f.Close()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "shards: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("captured %d shard-0 kernel events to %s\n", lw.Events(), *eventLog)
		}
		fmt.Print(res.Format())
		return
	}

	if *chaos != "" {
		seedStr := strings.TrimPrefix(*chaos, "seed=")
		seed, err := strconv.ParseUint(seedStr, 10, 64)
		if err != nil || seed == 0 {
			fmt.Fprintf(os.Stderr, "chaos: bad seed %q (want -chaos seed=N with N > 0)\n", *chaos)
			os.Exit(1)
		}
		if *eventLog != "" {
			f, err := os.Create(*eventLog)
			if err != nil {
				fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
				os.Exit(1)
			}
			n, err := bench.CaptureChaosLog(f, seed, *quick)
			if err == nil {
				err = f.Close()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("captured %d kernel events to %s\n", n, *eventLog)
			return
		}
		cfg := bench.DefaultChaos(seed)
		if *quick {
			cfg = bench.QuickChaos(seed)
		}
		rep, err := bench.RunChaos(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(rep)
		return
	}

	if *eventLog != "" {
		f, err := os.Create(*eventLog)
		if err != nil {
			fmt.Fprintf(os.Stderr, "event-log: %v\n", err)
			os.Exit(1)
		}
		n, err := bench.CaptureEventLog(f, *quick)
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "event-log: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("captured %d kernel events to %s\n", n, *eventLog)
		return
	}

	if *benchJSON != "" {
		r, err := bench.MeasurePerf()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*benchJSON, []byte(r.JSON()), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(r.JSON())
		return
	}

	start := time.Now()
	ok := true
	runOne := func(name string, fn func() error) {
		if *run != "all" && *run != name {
			return
		}
		fmt.Printf("==== %s ====\n", name)
		t0 := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			ok = false
			return
		}
		fmt.Printf("(%s completed in %v wall time)\n\n", name, time.Since(t0).Round(time.Millisecond))
	}

	runOne("table3", func() error {
		cfg := bench.DefaultTable3()
		if *quick {
			cfg.RegionBytes = 4 << 20
			cfg.Frames = 4096
		}
		r, err := bench.RunTable3(cfg)
		if err != nil {
			return err
		}
		fmt.Print(r.Format())
		return nil
	})

	runOne("table4", func() error {
		iters := 200000
		if *quick {
			iters = 5000
		}
		r, err := bench.RunTable4(iters)
		if err != nil {
			return err
		}
		fmt.Print(r.Format())
		return nil
	})

	runOne("figure5", func() error {
		cfg := bench.DefaultFigure5()
		if *users > 0 {
			cfg.UserCounts = cfg.UserCounts[:0]
			for i := 1; i <= *users; i++ {
				cfg.UserCounts = append(cfg.UserCounts, i)
			}
		}
		cfg.JobsPerUser = *jobs
		if *quick {
			cfg.UserCounts = []int{1, 2, 4, 8}
			cfg.JobsPerUser = 2
			cfg.Frames = 2048
		}
		series, err := bench.RunFigure5(cfg)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatFigure5(series))
		return nil
	})

	runOne("figure6", func() error {
		cfg := bench.DefaultFigure6()
		cfg.Scale = *scale
		if *quick && *scale == 1 {
			cfg.Scale = 256
		}
		points, err := bench.RunFigure6(cfg)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatFigure6(points, cfg.Scale))
		return nil
	})

	runOne("ablation", func() error {
		s := *scale
		if *quick && s == 1 {
			s = 256
		}
		rows, err := bench.RunMechanismAblation(s)
		if err != nil {
			return err
		}
		fmt.Print(bench.FormatMechanismAblation(rows, s))
		return nil
	})

	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
	if !ok {
		os.Exit(1)
	}
}
