package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"hipec"
)

const (
	pageSize   = 4096
	kernFrames = 8192
	burstLen   = 32 // net_touch_hit class A: 31 TouchAsync then 1 TouchPage
)

// connSpec is one connection's share of a net workload: the region it owns
// and the operation mix it draws from.
type connSpec struct {
	pages     int
	policy    func() (name, src string) // nil: the kernel's default pageout policy
	touch     bool                      // touches only, no payload
	writeFrac float64
	burst     bool // pipelined bursts instead of depth 1
}

// netSpec describes a workload that drives hipec.Serve over loopback TCP.
// Why each one exists is recorded in README.md and BENCHMARK.json.
type netSpec struct {
	store string
	conns [2]connSpec
	// classByOp: reads are class A and writes class B on every connection.
	// Otherwise connection 0 is class A and connection 1 class B.
	classByOp bool
	// noFaults: the regions fit in memory, so a single fault is a failure.
	noFaults bool
	// timerPaced: every page-in sleeps on the loop goroutine (the disk
	// model's transfer time, through RealClock.Sleep), so the loop is
	// asleep for most of a second: the workload's throughput and the
	// faulting connection's latency are set by the kernel's timers, not by
	// how fast the host computes, and its CPU time is mostly threads
	// looking for work between sleeps. Only the resident connection's
	// hits, class A, are scaled by the host's speed; see window.timerPaced.
	timerPaced bool
}

var netSpecs = map[string]netSpec{
	"net_touch_hit": {
		store: "mem",
		conns: [2]connSpec{
			{pages: 2048, touch: true, burst: true},
			{pages: 2048, touch: true},
		},
		noFaults: true,
	},
	"net_rw_4k": {
		store: "mem",
		conns: [2]connSpec{
			{pages: 2048, writeFrac: 0.5},
			{pages: 2048, writeFrac: 0.5},
		},
		classByOp: true,
		noFaults:  true,
	},
	"net_fault_file": {
		store: "file",
		conns: [2]connSpec{
			{pages: 1024, policy: func() (string, string) { return "lru", hipec.PolicyLRUSource(1040) }},
			{pages: 4096, writeFrac: 0.3, policy: func() (string, string) {
				return "fifo2", hipec.PolicyFIFOSecondChanceSource(1024)
			}},
		},
		timerPaced: true,
	},
}

type opKind uint8

const (
	opTouch opKind = iota
	opRead
	opWrite
)

type op struct {
	kind opKind
	page int
}

// stream is one connection's seeded operation sequence. The program under
// test sees only the operations; the seed stays here.
type stream struct {
	rng  *rand.Rand
	spec connSpec
}

func newStream(spec connSpec, seed int64, conn int) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed*7919 + int64(conn))), spec: spec}
}

func (s *stream) next() op {
	o := op{page: s.rng.Intn(s.spec.pages)}
	switch {
	case s.spec.touch:
		o.kind = opTouch
	case s.rng.Float64() < s.spec.writeFrac:
		o.kind = opWrite
	default:
		o.kind = opRead
	}
	return o
}

// stampWord is the 64-bit word a page is filled with at a given version, so
// that a read can be checked against the last write without keeping a copy.
func stampWord(conn, page int, version uint32) uint64 {
	x := uint64(conn+1)<<56 ^ uint64(page)<<32 ^ uint64(version)
	x ^= x >> 31
	x *= 0x9e3779b97f4a7c15
	x ^= x >> 29
	return x
}

func stampPage(buf []byte, conn, page int, version uint32) {
	w := stampWord(conn, page, version)
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], w)
	}
}

func checkPage(buf []byte, conn, page int, version uint32) bool {
	if len(buf) != pageSize {
		return false
	}
	w := stampWord(conn, page, version)
	for i := 0; i+8 <= len(buf); i += 8 {
		if binary.LittleEndian.Uint64(buf[i:]) != w {
			return false
		}
	}
	return true
}

// storeHook lets the ladder pass put its timing wrapper between the kernel
// and the store; every other set-up passes the store through.
type storeHook func(hipec.StoreBackend) hipec.Store

// netInstance is one complete set-up of a net workload: store, server, two
// dialled connections, their regions opened and every page written once.
type netInstance struct {
	spec    netSpec
	dir     string
	store   hipec.StoreBackend
	srv     *hipec.Server
	cli     [2]*hipec.NetClient
	region  [2]hipec.RegionID
	version [2][]uint32      // last version written, per page
	base    hipec.CacheStats // the server's counters when set-up ended
}

// openServer is the first half of a set-up: the store and the server over
// it. The traced run's ladder pass stops here and drives the server's loop
// directly.
func openServer(spec netSpec, hook storeHook, opts ...hipec.ServeOption) (in *netInstance, err error) {
	in = &netInstance{spec: spec}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	path := ""
	if spec.store != "mem" {
		if in.dir, err = os.MkdirTemp("", "hipecbench-"); err != nil {
			return nil, err
		}
		path = filepath.Join(in.dir, "store.dat")
	}
	if in.store, err = hipec.OpenStore(spec.store, path, pageSize); err != nil {
		return nil, err
	}
	var st hipec.Store = in.store
	if hook != nil {
		st = hook(in.store)
	}
	opts = append([]hipec.ServeOption{hipec.WithFrames(kernFrames)}, opts...)
	if in.srv, err = hipec.Serve("127.0.0.1:0", st, opts...); err != nil {
		return nil, err
	}
	return in, nil
}

// regionOptions are the options connection c opens its region with.
func (cs connSpec) regionOptions() []hipec.RegionOption {
	if cs.policy == nil {
		return nil
	}
	name, src := cs.policy()
	return []hipec.RegionOption{hipec.WithPolicySource(name, src)}
}

// setupNet covers everything up to the point where a window could start.
func setupNet(spec netSpec, opts ...hipec.ServeOption) (*netInstance, error) {
	in, err := openServer(spec, nil, opts...)
	if err != nil {
		return nil, err
	}
	if err := in.connect(); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// connect dials both connections, opens their regions (the server
// translates and verifies the policies) and writes every page once.
func (in *netInstance) connect() (err error) {
	buf := make([]byte, pageSize)
	for c, cs := range in.spec.conns {
		if in.cli[c], err = hipec.Dial(in.srv.Addr().String()); err != nil {
			return err
		}
		if in.region[c], err = in.cli[c].Open(cs.pages, cs.regionOptions()...); err != nil {
			return fmt.Errorf("open region %d: %w", c, err)
		}
		in.version[c] = make([]uint32, cs.pages)
		for p := 0; p < cs.pages; p++ {
			in.prepare(c, op{opWrite, p}, buf)
			if err = in.cli[c].WritePage(in.region[c], p, buf); err != nil {
				return fmt.Errorf("prefill region %d page %d: %w", c, p, err)
			}
		}
	}
	in.base, err = in.cli[0].Stats()
	return err
}

// close tears the instance down in dependency order and removes its files.
func (in *netInstance) close() error {
	for _, c := range in.cli {
		if c != nil {
			c.Close()
		}
	}
	if in.srv != nil {
		in.srv.Close()
	}
	var err error
	if in.store != nil {
		err = in.store.Close()
	}
	if in.dir != "" {
		if rerr := os.RemoveAll(in.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// prepare makes a write's payload: it bumps the page's version and stamps
// buf with it. It is separate from do so that callers can keep the
// harness's stamping out of the request's latency.
func (in *netInstance) prepare(conn int, o op, buf []byte) {
	if o.kind == opWrite {
		in.version[conn][o.page]++
		stampPage(buf, conn, o.page, in.version[conn][o.page])
	}
}

// do issues one prepared operation at depth 1 and checks its result: a read
// must return the stamp of the last version written.
func (in *netInstance) do(conn int, o op, buf []byte) bool {
	cli, r := in.cli[conn], in.region[conn]
	switch o.kind {
	case opTouch:
		return cli.TouchPage(r, o.page) == nil
	case opWrite:
		return cli.WritePage(r, o.page, buf) == nil
	default:
		n, err := cli.ReadPage(r, o.page, buf)
		return err == nil && checkPage(buf[:n], conn, o.page, in.version[conn][o.page])
	}
}

func (in *netInstance) class(conn int, o op) int {
	if in.spec.classByOp {
		if o.kind == opWrite {
			return classB
		}
		return classA
	}
	return conn
}

// generators returns the two closed-loop clients of the workload.
func (in *netInstance) generators(seed int64) []generator {
	var gens []generator
	for c := range in.spec.conns {
		c, s := c, newStream(in.spec.conns[c], seed, c)
		if in.spec.conns[c].burst {
			gens = append(gens, func(rec *sliceRec, stop *atomic.Bool) { in.runBursts(c, s, rec, stop) })
			continue
		}
		buf := make([]byte, pageSize)
		gens = append(gens, func(rec *sliceRec, stop *atomic.Bool) {
			for !stop.Load() {
				o := s.next()
				in.prepare(c, o, buf)
				start := time.Now()
				ok := in.do(c, o, buf)
				rec.add(in.class(c, o), time.Since(start), 1, ok)
			}
		})
	}
	return gens
}

// runBursts pipelines burstLen-1 TouchAsync behind one TouchPage. The server
// answers a connection in order, so the TouchPage reply means the whole
// burst was applied; the burst's latency is its completion time.
func (in *netInstance) runBursts(conn int, s *stream, rec *sliceRec, stop *atomic.Bool) {
	cli, r := in.cli[conn], in.region[conn]
	for !stop.Load() {
		ok := true
		start := time.Now()
		for i := 0; i < burstLen-1; i++ {
			ok = cli.TouchAsync(r, s.next().page) && ok
		}
		ok = cli.TouchPage(r, s.next().page) == nil && ok
		rec.add(in.class(conn, op{}), time.Since(start), burstLen, ok)
	}
}

// counterGates checks the server's own counters against what the clients
// sent since set-up: every access arrived exactly once, each was a hit or a
// fault, and a workload that fits in memory did not fault. It returns the
// number of violated gates.
func (in *netInstance) counterGates(issued int64) (violations int64, report string) {
	now, err := in.cli[0].Stats()
	if err != nil {
		return 1, fmt.Sprintf("stats: %v", err)
	}
	acc := now.Accesses - in.base.Accesses
	if acc != issued {
		violations++
		report += fmt.Sprintf("accesses %d != issued %d; ", acc, issued)
	}
	if now.Hits+now.Faults != now.Accesses {
		violations++
		report += fmt.Sprintf("hits %d + faults %d != accesses %d; ", now.Hits, now.Faults, now.Accesses)
	}
	if faults := now.Faults - in.base.Faults; in.spec.noFaults && faults != 0 {
		violations++
		report += fmt.Sprintf("%d faults on a resident workload; ", faults)
	}
	return violations, report
}
