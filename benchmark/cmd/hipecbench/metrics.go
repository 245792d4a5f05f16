package main

// endToEndMetrics are what a user of the system would see; the untraced run
// reports all eight for every workload. BENCHMARK.json carries their bounds.
var endToEndMetrics = []metric{
	{"ops_per_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"lat_mid_us", "us"},
	{"lat2_mid_us", "us"},
	{"allocs_per_op", "1"},
	{"alloc_bytes_per_op", "B"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayerMetrics are what the traced run reports, from the outside in. A
// metric a workload does not exercise reads 0 there: sim_join crosses no
// wire, net_touch_hit never faults, and the component ladders (executor,
// event spine, policy open, store backends, simulator) depend on no
// workload and are run in sim_join's traced run only.
var perLayerMetrics = []metric{
	// netclient and the socket
	{"netclient.rtt_p50_us", "us"},
	{"netclient.lat_p50_us", "us"},
	{"netclient.lat_p90_us", "us"},
	{"netclient.lat_p99_us", "us"},
	{"netclient.lat2_p50_us", "us"},
	{"netclient.lat2_p90_us", "us"},
	{"netclient.lat2_p99_us", "us"},
	{"server.residual_us", "us"},
	{"server.batch_gain", "1"},
	// wire
	{"wire.encode_req_ns", "ns"},
	{"wire.decode_req_ns", "ns"},
	{"wire.encode_resp_ns", "ns"},
	{"wire.decode_resp_ns", "ns"},
	{"wire.allocs_per_op", "1"},
	// core.Loop and core.CacheSession
	{"ladder.op_p50_us", "us"},
	{"core.loop.hop_ns", "ns"},
	{"core.session.hit_ns", "ns"},
	{"core.session.fault_ns", "ns"},
	{"core.session.fault_p50_ns", "ns"},
	// vm: exact counts per operation of the traced stream
	{"vm.hit_ratio", "1"},
	{"vm.faults_per_op", "1"},
	{"vm.pageins_per_op", "1"},
	{"vm.zerofills_per_op", "1"},
	{"vm.pageouts_per_op", "1"},
	{"vm.evictions_per_op", "1"},
	// policy executor and event spine
	{"core.executor.cmds_per_fault", "1"},
	{"core.executor.ns_per_cmd", "ns"},
	{"vm.resident_hit_ns", "ns"},
	{"kevent.sink_ns_per_cmd", "ns"},
	{"hpl.open_policy_us", "us"},
	// substrate.Store under the workload, then each backend on its own
	{"store.read_ns", "ns"},
	{"store.write_ns", "ns"},
	{"store.reads_per_op", "1"},
	{"store.writes_per_op", "1"},
	{"store.mem.read_ns", "ns"},
	{"store.mem.write_ns", "ns"},
	{"store.file.read_ns", "ns"},
	{"store.file.write_ns", "ns"},
	{"store.mmap.read_ns", "ns"},
	{"store.mmap.write_ns", "ns"},
	{"store.tiered.read_ns", "ns"},
	{"store.tiered.write_ns", "ns"},
	{"store.sharded.read_ns", "ns"},
	{"store.sharded.write_ns", "ns"},
	// the simulator
	{"sim.build_us", "us"},
	{"sim.mru_ns_per_access", "ns"},
	{"sim.lru_ns_per_access", "ns"},
	// the Go runtime and the host during the closed-loop rerun
	{"runtime.gc_cycles_per_s", "1/s"},
	{"runtime.gc_pause_ms_per_s", "ms/s"},
	{"host.busy_cores", "1"},
	{"host.steal_pct", "%"},
	{"host.cal_drift_pct", "%"},
	{"host.cal_ms", "ms"},
	{"host.echo_rtt_us", "us"},
	{"host.spinners", "count"},
	{"trace.overhead_pct", "%"},
}
