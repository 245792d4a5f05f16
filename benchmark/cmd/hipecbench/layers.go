package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"hipec"
	"hipec/internal/bench"
	"hipec/internal/core"
	"hipec/internal/substrate"
	"hipec/internal/wire"
)

const (
	traceOps    = 100_000 // operations in each traced pass
	loadSeconds = 3       // length of the traced run's short closed-loop reruns
	storePages  = 4096    // page set of the store ladder
)

// ladder drives a workload's operation stream through every layer below
// the socket, one call at a time on one goroutine, with a span around each:
// what netclient, the server's reader and its batcher would do, minus the
// TCP connection and the goroutine hand-offs. The difference to a real
// round trip is therefore the socket and the hand-offs (server.residual_us).
type ladder struct {
	in    *netInstance
	tr    *tracer
	loop  *hipec.Loop
	sess  *core.CacheSession
	seq   uint32
	frame []byte // request frame, reused like netclient's would be
	reply []byte // response frame, reused like the batcher's
	rbuf  []byte // the server's read buffer
}

func newLadder(spec netSpec, tr *tracer) (*ladder, error) {
	l := &ladder{tr: tr, sess: core.NewCacheSession(), rbuf: make([]byte, pageSize)}
	in, err := openServer(spec, func(b hipec.StoreBackend) hipec.Store { return &tracedStore{b, tr} })
	if err != nil {
		return nil, err
	}
	l.in, l.loop = in, in.srv.Loop()
	buf := make([]byte, pageSize)
	for c, cs := range spec.conns {
		err := l.loop.Call(func(k *hipec.Kernel) error {
			var err error
			in.region[c], err = l.sess.Open(k, cs.pages, cs.regionOptions()...)
			return err
		})
		if err != nil {
			in.close()
			return nil, fmt.Errorf("ladder: open region %d: %w", c, err)
		}
		in.version[c] = make([]uint32, cs.pages)
		for p := 0; p < cs.pages; p++ {
			o := op{opWrite, p}
			in.prepare(c, o, buf)
			if ok, _ := l.do(c, o, buf, 0); !ok {
				in.close()
				return nil, fmt.Errorf("ladder: prefill region %d page %d failed", c, p)
			}
		}
	}
	return l, nil
}

func (l *ladder) close() error {
	_ = l.loop.Call(func(k *hipec.Kernel) error { l.sess.FreeAll(k); return nil })
	return l.in.close()
}

// do carries one operation down the ladder and back and checks its result.
func (l *ladder) do(conn int, o op, buf []byte, opn uint32) (ok, faulted bool) {
	tr, region, page := l.tr, uint32(l.in.region[conn]), uint32(o.page)
	l.seq++

	id, t := tr.id(), time.Now()
	var err error
	switch o.kind {
	case opTouch:
		l.frame = wire.AppendTouch(l.frame[:0], l.seq, region, page)
	case opWrite:
		l.frame, err = wire.AppendWrite(l.frame[:0], l.seq, region, page, buf)
	default:
		l.frame = wire.AppendRead(l.frame[:0], l.seq, region, page, pageSize)
	}
	tr.record(spanEncodeReq, id, 0, opn, t, time.Now())
	if err != nil {
		return false, false
	}

	id, t = tr.id(), time.Now()
	req, err := wire.DecodeRequest(l.frame[4:])
	tr.record(spanDecodeReq, id, 0, opn, t, time.Now())
	if err != nil {
		return false, false
	}

	id, t = tr.id(), time.Now()
	err = l.loop.Call(func(k *hipec.Kernel) error {
		faults := k.VM.Stats().Faults
		sid, st := tr.id(), time.Now()
		tr.setCurrent(sid, opn)
		var n int
		var err error
		switch req.Op {
		case wire.OpTouch:
			err = l.sess.Touch(k, core.RegionID(req.Region), int(req.Page))
		case wire.OpWrite:
			err = l.sess.Write(k, core.RegionID(req.Region), int(req.Page), req.Data)
		default:
			n, err = l.sess.Read(k, core.RegionID(req.Region), int(req.Page), l.rbuf[:req.MaxLen])
		}
		tr.setCurrent(0, 0)
		tr.record(spanSession, sid, id, opn, st, time.Now())
		faulted = k.VM.Stats().Faults != faults

		eid, et := tr.id(), time.Now()
		switch {
		case err != nil:
			l.reply = wire.AppendErrorResp(l.reply[:0], req.Seq, wire.StatusFor(err), err.Error())
		case req.Op == wire.OpRead:
			l.reply = wire.AppendReadResp(l.reply[:0], req.Seq, l.rbuf[:n])
		default:
			l.reply = wire.AppendAck(l.reply[:0], req.Seq)
		}
		tr.record(spanEncodeResp, eid, id, opn, et, time.Now())
		return nil
	})
	tr.record(spanLoopCall, id, 0, opn, t, time.Now())
	if err != nil {
		return false, faulted
	}

	id, t = tr.id(), time.Now()
	resp, err := wire.DecodeResponse(l.reply[4:])
	tr.record(spanDecodeResp, id, 0, opn, t, time.Now())
	ok = err == nil && resp.Status == wire.StatusOK && resp.Seq == l.seq &&
		(o.kind != opRead || checkPage(resp.Data, conn, o.page, l.in.version[conn][o.page]))
	return ok, faulted
}

// kernelCounters are the exact counts of a pass, read on the loop.
type kernelCounters struct {
	stats hipec.CacheStats
	cmds  int64
}

func (l *ladder) counters() (c kernelCounters) {
	_ = l.loop.Call(func(k *hipec.Kernel) error {
		c.stats, c.cmds = l.sess.Stats(k), k.Executor.TotalCommands()
		return nil
	})
	return c
}

// everyOther is the share of a per-operation series that connection conn
// sent: alternate deals the operations out in turn.
func everyOther(v []float64, conn int) []float64 {
	out := make([]float64, 0, len(v)/2+1)
	for i := conn; i < len(v); i += 2 {
		out = append(out, v[i])
	}
	return out
}

// alternate yields the workload's traced stream: the two connections'
// seeded streams, taken in turn.
func alternate(spec netSpec, seed int64) func() (conn int, o op) {
	streams := [2]*stream{newStream(spec.conns[0], seed, 0), newStream(spec.conns[1], seed, 1)}
	i := 0
	return func() (int, op) {
		conn := i % 2
		i++
		return conn, streams[conn].next()
	}
}

// ladderPass runs the traced stream down the ladder and turns its spans
// into the per-layer numbers of everything below the socket.
func ladderPass(spec netSpec, seed int64, nops int, tr *tracer, m map[string]float64) (opNs []float64, failed int64, err error) {
	l, err := newLadder(spec, tr)
	if err != nil {
		return nil, 0, err
	}
	defer l.close()
	tr.mu.Lock()
	tr.all = tr.all[:0] // the prefill's spans are not the stream's
	tr.mu.Unlock()
	before := l.counters()

	next := alternate(spec, seed)
	buf := make([]byte, pageSize)
	faulted := make([]bool, nops+1) // per operation: did it fault
	for i := uint32(1); i <= uint32(nops); i++ {
		conn, o := next()
		l.in.prepare(conn, o, buf)
		var ok bool
		if ok, faulted[i] = l.do(conn, o, buf, i); !ok {
			failed++
		}
	}
	after := l.counters()

	tr.mu.Lock()
	spans := tr.all
	tr.mu.Unlock()
	self := selfTimes(spans)
	var sum, count [numSpanNames]float64
	var hitNs, faultNs float64
	var faultSelf []float64
	opNs = make([]float64, nops) // per operation: its own spans' durations
	for _, s := range spans {
		sum[s.name] += float64(self[s.id])
		count[s.name]++
		if s.parent == 0 && s.op != 0 {
			opNs[s.op-1] += float64(s.end - s.start)
		}
		if s.name == spanSession {
			if faulted[s.op] {
				faultNs += float64(self[s.id])
				faultSelf = append(faultSelf, float64(self[s.id]))
			} else {
				hitNs += float64(self[s.id])
			}
		}
	}
	n := float64(nops)
	m["wire.encode_req_ns"] = sum[spanEncodeReq] / n
	m["wire.decode_req_ns"] = sum[spanDecodeReq] / n
	m["wire.encode_resp_ns"] = sum[spanEncodeResp] / n
	m["wire.decode_resp_ns"] = sum[spanDecodeResp] / n
	m["core.loop.hop_ns"] = sum[spanLoopCall] / n
	m["ladder.op_p50_us"] = median(opNs) / 1e3
	m["store.reads_per_op"] = count[spanStoreRead] / n
	m["store.writes_per_op"] = count[spanStoreWrite] / n
	if count[spanStoreRead] > 0 {
		m["store.read_ns"] = sum[spanStoreRead] / count[spanStoreRead]
	}
	if count[spanStoreWrite] > 0 {
		m["store.write_ns"] = sum[spanStoreWrite] / count[spanStoreWrite]
	}

	d := func(a, b int64) float64 { return float64(a - b) }
	acc := d(after.stats.Accesses, before.stats.Accesses)
	faults := d(after.stats.Faults, before.stats.Faults)
	if acc != n || d(after.stats.Hits, before.stats.Hits)+faults != acc || (spec.noFaults && faults != 0) {
		failed++
	}
	if hits := acc - faults; hits > 0 {
		m["core.session.hit_ns"] = hitNs / hits
	}
	if faults > 0 {
		// The mean is what throughput pays; the median shows how much of it
		// is the tail (a page-in sleeps on the loop goroutine).
		m["core.session.fault_ns"] = faultNs / faults
		m["core.session.fault_p50_ns"] = median(faultSelf)
		m["core.executor.cmds_per_fault"] = float64(after.cmds-before.cmds) / faults
	}
	m["vm.hit_ratio"] = d(after.stats.Hits, before.stats.Hits) / acc
	m["vm.faults_per_op"] = faults / n
	m["vm.pageins_per_op"] = d(after.stats.PageIns, before.stats.PageIns) / n
	m["vm.zerofills_per_op"] = d(after.stats.ZeroFills, before.stats.ZeroFills) / n
	m["vm.pageouts_per_op"] = d(after.stats.PageOuts, before.stats.PageOuts) / n
	m["vm.evictions_per_op"] = d(after.stats.Evictions, before.stats.Evictions) / n

	return opNs, failed, nil
}

// socketPass sends the traced stream through Dial and Serve at depth 1 with
// a netclient.call span around each operation, and returns their round-trip
// times in stream order. It then keeps going for a fifth as many operations
// again in chunks that alternately trace and do not: two back-to-back passes
// on this host differ by more than tracing costs, neighbouring chunks do
// not, so their ratio is the tracing overhead.
func socketPass(spec netSpec, seed int64, nops int, tr *tracer) (rtts []float64, overheadPct float64, failed int64, err error) {
	in, err := setupNet(spec)
	if err != nil {
		return nil, 0, 0, err
	}
	defer in.close()
	next := alternate(spec, seed)
	buf := make([]byte, pageSize)
	opn := uint32(0)
	one := func(traced bool) {
		conn, o := next()
		in.prepare(conn, o, buf)
		opn++
		if !traced {
			if !in.do(conn, o, buf) {
				failed++
			}
			return
		}
		id, t := tr.id(), time.Now()
		ok := in.do(conn, o, buf)
		end := time.Now()
		tr.record(spanNetCall, id, 0, opn, t, end)
		rtts = append(rtts, float64(end.Sub(t)))
		if !ok {
			failed++
		}
	}
	rtts = make([]float64, 0, nops+nops/10)
	for i := 0; i < nops; i++ {
		one(true)
	}
	const chunk = 500
	var wall [2][]float64 // per chunk, by traced
	for c := 0; c < nops/5/chunk; c++ {
		start := time.Now()
		for i := 0; i < chunk; i++ {
			one(c%2 == 1)
		}
		wall[c%2] = append(wall[c%2], float64(time.Since(start)))
	}
	violations, _ := in.counterGates(int64(opn))
	return rtts[:nops], 100 * (median(wall[1])/median(wall[0]) - 1), failed + violations, nil
}

// wireAllocs counts the heap allocations of the four wire calls of an
// operation, outside any trace, over the workload's own mix.
func wireAllocs(spec netSpec, seed int64) float64 {
	const n = 20_000
	next := alternate(spec, seed)
	payload := make([]byte, pageSize)
	var frame, reply []byte
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := uint32(1); i <= n; i++ {
		_, o := next()
		switch o.kind {
		case opTouch:
			frame = wire.AppendTouch(frame[:0], i, 1, uint32(o.page))
		case opWrite:
			frame, _ = wire.AppendWrite(frame[:0], i, 1, uint32(o.page), payload)
		default:
			frame = wire.AppendRead(frame[:0], i, 1, uint32(o.page), pageSize)
		}
		req, err := wire.DecodeRequest(frame[4:])
		if err != nil {
			return -1
		}
		if req.Op == wire.OpRead {
			reply = wire.AppendReadResp(reply[:0], req.Seq, payload)
		} else {
			reply = wire.AppendAck(reply[:0], req.Seq)
		}
		if _, err := wire.DecodeResponse(reply[4:]); err != nil {
			return -1
		}
	}
	runtime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs-ms0.Mallocs) / n
}

// storeLadder times page writes and then reads in a seeded order on every
// backend kind, calling store.Open directly: the cost of the layer under
// substrate.Store with no kernel above it.
func storeLadder(dir string, seed int64, m map[string]float64) error {
	buf := make([]byte, pageSize)
	order := rand.New(rand.NewSource(seed)).Perm(storePages)
	for _, kind := range []string{"mem", "file", "mmap", "tiered", "sharded"} {
		b, err := hipec.OpenStore(kind, filepath.Join(dir, "ladder-"+kind), pageSize)
		if err != nil {
			return err
		}
		key := func(p int) substrate.PageKey { return substrate.PageKey{Object: 1, Offset: int64(p) * pageSize} }
		// Only the store's own calls are timed, not the stamping and checking.
		var writeNs, readNs time.Duration
		for _, p := range order {
			stampPage(buf, 0, p, 1)
			start := time.Now()
			err := b.WritePage(key(p), buf)
			writeNs += time.Since(start)
			if err != nil {
				b.Close()
				return fmt.Errorf("store ladder %s: %w", kind, err)
			}
		}
		for i := range order {
			p := order[len(order)-1-i]
			start := time.Now()
			data, ok, err := b.ReadPage(key(p))
			readNs += time.Since(start)
			if err != nil || !ok || !checkPage(data, 0, p, 1) {
				b.Close()
				return fmt.Errorf("store ladder %s: page %d read back wrong (ok=%v err=%v)", kind, p, ok, err)
			}
		}
		m["store."+kind+".write_ns"] = float64(writeNs) / storePages
		m["store."+kind+".read_ns"] = float64(readNs) / storePages
		if err := b.Close(); err != nil {
			return err
		}
	}
	return nil
}

// openPolicyUS times Client.Open under WithPolicySource on an in-process
// realtime kernel: translating the HPL source, verifying it, and activating
// the container. It is the part of a set-up no later phase amortises.
func openPolicyUS() (float64, error) {
	k := hipec.New(hipec.Config{
		Frames:    kernFrames,
		Substrate: hipec.SubstrateConfig{Kind: hipec.SubstrateReal, Store: substrate.NewMemStore(pageSize, true)},
	})
	cli := hipec.NewClient(k)
	defer cli.Close()
	src := hipec.PolicyFIFOSecondChanceSource(256)
	var us []float64
	for i := 0; i < 51; i++ {
		start := time.Now()
		r, err := cli.Open(512, hipec.WithPolicySource("fifo2", src))
		us = append(us, float64(time.Since(start))/1e3)
		if err != nil {
			return 0, err
		}
		if err := cli.FreeRegion(r); err != nil {
			return 0, err
		}
	}
	return median(us), nil
}

// simCells runs traced cells of each policy: a sim.build and a sim.join
// span per cell, and the simulator's own exact counts.
func simCells(tr *tracer, cells int, m map[string]float64) (faultsPerOp, cmdsPerFault float64, failed int64, err error) {
	var build []float64
	var join [2][]float64
	var faults, cmds, accesses int64
	opn := uint32(0)
	for i := 0; i < cells; i++ {
		for class, p := range simPolicies {
			opn++
			begin := time.Now()
			r, err := runCell(p)
			if err != nil {
				return 0, 0, failed, err
			}
			mid := begin.Add(r.build)
			tr.record(spanSimBuild, tr.id(), 0, opn, begin, mid)
			tr.record(spanSimJoin, tr.id(), 0, opn, mid, mid.Add(r.join))
			if !r.ok {
				failed += int64(cellAccesses)
			}
			build = append(build, float64(r.build)/1e3)
			join[class] = append(join[class], float64(r.join)/float64(cellAccesses))
			faults += r.faults
			cmds += r.cmds
			accesses += int64(cellAccesses)
		}
	}
	m["sim.build_us"] = median(build)
	m["sim.mru_ns_per_access"] = median(join[classA])
	m["sim.lru_ns_per_access"] = median(join[classB])
	return float64(faults) / float64(accesses), float64(cmds) / float64(faults), failed, nil
}

// load is a short untraced closed-loop rerun of the workload, for the
// numbers that need its real concurrency: tails, GC activity, batch gain
// and the state of the host.
func load(workload string, seed int64, spinners int, opts ...hipec.ServeOption) (w *window, host *hostProbe, failed int64, err error) {
	e, err := newEcho()
	if err != nil {
		return nil, nil, 0, err
	}
	defer e.close()
	in, err := setup(workload, opts...)
	if err != nil {
		return nil, nil, 0, err
	}
	defer in.close()
	host = startHostProbe(spinners)
	if w, err = measure(in.generators(seed), e, time.Second, loadSeconds); err != nil {
		return nil, nil, 0, err
	}
	host.stop()
	w.timerPaced = netSpecs[workload].timerPaced
	violations, _ := in.counterGates(w.issued())
	return w, host, w.failed() + violations, nil
}

// runTraced is the -trace run. It prints the per-layer metrics and writes
// the spans to <out>/trace-<workload>.json.
func runTraced(workload string, seed int64, out string, spinners int, log io.Writer) (result, error) {
	spec, isNet := netSpecs[workload]
	if !isNet && workload != "sim_join" {
		return result{}, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	m := make(map[string]float64)
	res := result{Metrics: make(map[string]value)}
	tr := newTracer(10 * traceOps)
	var err error
	if isNet {
		err = tracedNet(spec, seed, tr, m, &res, log)
	} else {
		err = tracedSim(seed, tr, m, &res)
	}
	if err != nil {
		return res, err
	}

	// The closed-loop reruns.
	w, host, failed, err := load(workload, seed, spinners)
	if err != nil {
		return res, err
	}
	res.Attempted, res.Failed = res.Attempted+w.issued(), res.Failed+failed
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}} {
		m["netclient.lat_"+p.name+"_us"] = w.wholePercentile(classA, p.q) / 1e3
		m["netclient.lat2_"+p.name+"_us"] = w.wholePercentile(classB, p.q) / 1e3
	}
	var wall, pause time.Duration
	var gcs uint32
	for _, s := range w.slices {
		wall, pause, gcs = wall+s.wall, pause+s.gcPause, gcs+s.gcs
	}
	m["runtime.gc_cycles_per_s"] = float64(gcs) / wall.Seconds()
	m["runtime.gc_pause_ms_per_s"] = float64(pause) / 1e6 / wall.Seconds()
	for _, h := range host.metrics(w) {
		m[h.name] = h.v
	}
	if isNet {
		w1, _, failed, err := load(workload, seed, spinners, hipec.WithMaxBatch(1))
		if err != nil {
			return res, err
		}
		res.Attempted, res.Failed = res.Attempted+w1.issued(), res.Failed+failed
		batched, _ := w.endToEnd()
		single, _ := w1.endToEnd()
		m["server.batch_gain"] = batched["ops_per_s"] / single["ops_per_s"]
	}

	file, err := writeTrace(out, workload, tr.all)
	if err != nil {
		return res, err
	}
	res.Correct = res.Failed == 0
	for _, pm := range perLayerMetrics {
		res.Metrics[pm.name] = value{m[pm.name], pm.unit}
		fmt.Fprintf(log, "%-28s %14.4f %s\n", pm.name, m[pm.name], pm.unit)
	}
	fmt.Fprintf(log, "spans %d written to %s\nattempted %d failed %d\n", len(tr.all), file, res.Attempted, res.Failed)
	return res, nil
}

// tracedNet is a net workload's own part of the traced run: the ladder pass
// and the socket pass over the same seeded stream.
func tracedNet(spec netSpec, seed int64, tr *tracer, m map[string]float64, res *result, log io.Writer) error {
	ladderNs, failed, err := ladderPass(spec, seed, traceOps, tr, m)
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = res.Attempted+traceOps, res.Failed+failed

	rtts, overhead, failed, err := socketPass(spec, seed, traceOps, tr)
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = res.Attempted+traceOps+traceOps/5, res.Failed+failed
	// Operation i is the same operation in both passes, so the residual
	// is taken pairwise: what a round trip costs beyond its own ladder.
	// Per connection the three medians add up; over a mix of hits and
	// faults they need not, so the check is made per connection.
	residual := make([]float64, traceOps)
	for i := range residual {
		residual[i] = rtts[i] - ladderNs[i]
	}
	for conn := 0; conn < 2; conn++ {
		l, d, rtt := median(everyOther(ladderNs, conn)), median(everyOther(residual, conn)), median(everyOther(rtts, conn))
		fmt.Fprintf(log, "connection %d: ladder p50 %.3f us + residual p50 %.3f us = %.3f us, %.1f %% of rtt p50 %.3f us\n",
			conn, l/1e3, d/1e3, (l+d)/1e3, 100*(l+d)/rtt, rtt/1e3)
	}
	m["server.residual_us"] = median(residual) / 1e3
	m["netclient.rtt_p50_us"] = median(rtts) / 1e3
	m["trace.overhead_pct"] = overhead
	m["wire.allocs_per_op"] = wireAllocs(spec, seed)
	return nil
}

// tracedSim is sim_join's own part of the traced run: traced cells, and the
// component ladders, which depend on no workload and so are run in this
// traced run only — the executor and the event spine (bench.MeasurePerf),
// Open under a policy source, and every store backend on its own.
func tracedSim(seed int64, tr *tracer, m map[string]float64, res *result) error {
	const cells = 3
	faultsPerOp, cmdsPerFault, failed, err := simCells(tr, cells, m)
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = res.Attempted+2*cells*int64(cellAccesses), res.Failed+failed
	m["vm.faults_per_op"] = faultsPerOp
	m["vm.pageins_per_op"] = faultsPerOp // the outer table lives on disk: every fault pages in
	m["vm.hit_ratio"] = 1 - faultsPerOp
	m["core.executor.cmds_per_fault"] = cmdsPerFault

	perf, err := bench.MeasurePerf()
	if err != nil {
		return err
	}
	m["core.executor.ns_per_cmd"] = perf.ExecutorNsPerCommand
	m["vm.resident_hit_ns"] = perf.ResidentHitNsFlat
	m["kevent.sink_ns_per_cmd"] = perf.SpineNsPerCommandCounting - perf.SpineNsPerCommandNoSink
	if m["hpl.open_policy_us"], err = openPolicyUS(); err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "hipecbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	return storeLadder(dir, seed, m)
}
