package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hipec/internal/core"
	"hipec/internal/trace"
	"hipec/internal/vm"
	"hipec/internal/workload"
)

// run drives a HiPEC policy against a synthetic workload on the simulated
// kernel and reports fault statistics and virtual elapsed time — a quick
// way to compare replacement policies on an access pattern.
//
//	hipec run -policy mru -workload cyclic -pages 2048 -pool 512 -accesses 100000
//	hipec run -hpl mypolicy.hpl -workload zipf -pages 4096 -accesses 200000
//	hipec run -baseline -workload random ...      # default Mach daemon instead of HiPEC
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hipec run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		policy   = fs.String("policy", "fifo2", "canned policy: fifo, lru, mru, fifo2, sequential")
		hplFile  = fs.String("hpl", "", "compile and use this HPL policy file instead")
		baseline = fs.Bool("baseline", false, "use the default Mach pageout daemon (no HiPEC)")
		wl       = fs.String("workload", "cyclic", "workload: sequential, cyclic, random, zipf, hotcold")
		pages    = fs.Int64("pages", 2048, "region size in pages")
		pool     = fs.Int("pool", 512, "private pool size (minFrame) in frames")
		accesses = fs.Int("accesses", 100000, "number of memory accesses to drive")
		writes   = fs.Float64("writes", 0.2, "write fraction (random workload)")
		frames   = fs.Int("frames", 16384, "machine size in frames")
		seed     = fs.Int64("seed", 1, "workload RNG seed")
		fromDisk = fs.Bool("disk", false, "populate the region on disk (page-ins cost I/O)")
		traceIn  = fs.String("trace", "", "replay this trace file instead of a generated workload")
		traceOut = fs.String("save-trace", "", "save the generated access trace to this file")
		compare  = fs.Bool("compare-opt", false, "also report Belady OPT and exact-LRU fault counts for the same trace")
		report   = fs.Bool("report", false, "print a full kernel state report after the run")
	)
	if fs.Parse(args) != nil {
		return 2
	}
	if err := drive(stdout, stderr, *policy, *hplFile, *baseline, *wl, *pages, *pool, *accesses, *writes, *frames, *seed, *fromDisk, *traceIn, *traceOut, *compare, *report); err != nil {
		fmt.Fprintln(stderr, "hipec run:", err)
		return 1
	}
	return 0
}

func drive(stdout, stderr io.Writer, policy, hplFile string, baseline bool, wl string, pages int64, pool, accesses int, writes float64, frames int, seed int64, fromDisk bool, traceIn, traceOut string, compare, report bool) error {
	k := core.New(core.Config{Frames: frames, HiPECDisabled: baseline, StartChecker: !baseline})
	sp := k.NewSpace()

	// Obtain the access trace: from a file or a generator.
	var tr *trace.Trace
	if traceIn != "" {
		f, err := os.Open(traceIn)
		if err != nil {
			return err
		}
		tr, err = trace.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		pages = tr.Pages
		wl = "trace:" + traceIn
	} else {
		var gen workload.Generator
		switch wl {
		case "sequential", "cyclic":
			gen = &workload.Sequential{N: pages}
		case "random":
			gen = workload.NewRandom(pages, writes, seed)
		case "zipf":
			gen = workload.NewZipf(pages, 1.2, seed)
		case "hotcold":
			gen = workload.NewHotCold(pages, 0.1, 0.9, seed)
		default:
			return fmt.Errorf("unknown workload %q", wl)
		}
		tr = trace.FromGenerator(gen, accesses)
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if _, err := tr.WriteTo(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "hipec run: wrote %s (%d references)\n", traceOut, tr.Len())
	}

	size := pages * 4096
	var entry *vm.MapEntry
	var container *core.Container
	var err error
	var popErr error
	makeObj := func() *vm.Object {
		obj := k.VM.NewObject(size, !fromDisk)
		if fromDisk {
			if perr := k.VM.Populate(obj, nil); perr != nil && popErr == nil {
				popErr = perr
			}
		}
		return obj
	}
	if baseline {
		entry, err = sp.Map(makeObj(), 0, size)
		if err == nil {
			err = popErr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "policy: default Mach pageout daemon (FIFO second chance, shared pool)\n")
	} else {
		if hplFile != "" {
			policy = ""
		}
		spec, err := loadSpec(policy, pool, "", []string{hplFile})
		if err != nil {
			return err
		}
		entry, container, err = k.Map(sp, makeObj(), 0, size, core.WithPolicy(spec))
		if err == nil {
			err = popErr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "policy: %s (minFrame %d)\n", spec.Name, spec.MinFrame)
	}
	fmt.Fprintf(stdout, "workload: %s over %d pages, %d accesses\n", wl, pages, tr.Len())

	start := k.Clock.Now()
	faults, err := trace.Replay(sp, entry, tr)
	if err != nil {
		return err
	}
	elapsed := time.Duration(k.Clock.Now().Sub(start))

	fmt.Fprintf(stdout, "\naccesses:        %d\n", sp.Stats().Accesses)
	fmt.Fprintf(stdout, "faults:          %d (%.2f%%)\n", faults, 100*float64(faults)/float64(sp.Stats().Accesses))
	fmt.Fprintf(stdout, "page-ins:        %d\n", sp.Stats().PageIns)
	fmt.Fprintf(stdout, "page-outs:       %d\n", k.VM.Stats().PageOuts)
	fmt.Fprintf(stdout, "virtual elapsed: %v\n", elapsed)
	if container != nil {
		fmt.Fprintf(stdout, "policy commands: %d (%.1f per fault)\n", container.Stats().Commands,
			float64(container.Stats().Commands)/float64(max(1, container.Stats().Activations)))
		if container.State() != core.StateActive {
			fmt.Fprintf(stdout, "CONTAINER TERMINATED: %s\n", container.TerminationReason())
		}
	}
	if report {
		fmt.Fprintf(stdout, "\n%s", k.Report())
	}
	if compare {
		st := trace.Analyze(tr)
		fmt.Fprintf(stdout, "\ntrace: %d refs over %d unique pages (reuse p50=%d p90=%d)\n",
			st.References, st.UniquePages, st.ReuseP50, st.ReuseP90)
		fmt.Fprintf(stdout, "exact LRU  @%d frames: %d faults\n", pool, trace.LRU(tr, pool))
		fmt.Fprintf(stdout, "Belady OPT @%d frames: %d faults (no policy can do better)\n", pool, trace.OPT(tr, pool))
	}
	return nil
}
