package main

// metricDef names one reported metric. BENCHMARK.json lists the same names,
// units and directions; the package test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the miner sees, reported with tracing
// off.
var endToEnd = []metricDef{
	{"mine_s", "s", "lower"},        // median wall time of one mining call
	{"setup_s", "s", "lower"},       // median of the run's set-ups
	{"peak_heap_mb", "MB", "lower"}, // peak live heap of a mining call
}

// perLayer are the traced run's metrics. Every workload reports all of them;
// a layer the workload does not cross reads 0.
var perLayer = []metricDef{
	{"quest.generate_s", "s", "lower"},

	{"apriori.pass2_s", "s", "lower"},
	{"apriori.pass3_s", "s", "lower"},
	{"apriori.candidates", "count", "lower"},
	{"apriori.subsets", "count", "lower"},
	{"apriori.large_per_candidate", "ratio", "higher"},

	{"hpa.pass2_s", "s", "lower"},
	{"hpa.pass3_s", "s", "lower"},
	{"hpa.probes_shipped", "count", "lower"},

	{"transport.mesh_msgs", "count", "lower"},
	{"transport.mesh_mb", "MB", "lower"},

	{"memtable.pagefaults", "count", "lower"},
	{"memtable.evictions", "count", "lower"},
	{"memtable.updates", "count", "lower"},
	{"memtable.peak_resident_mb", "MB", "lower"},

	{"remotemem.stores", "count", "lower"},
	{"remotemem.fetches", "count", "lower"},
	{"remotemem.updates", "count", "lower"},
	{"remotemem.update_frames", "count", "lower"},
	{"remotemem.frames_per_update", "ratio", "lower"},
	{"remotemem.verified_fetches", "count", "higher"},
	{"remotemem.mismatches", "count", "lower"},
	{"remotemem.failovers", "count", "lower"},
	{"remotemem.recoveries", "count", "lower"},
	{"remotemem.swap_rtt_us.p50", "us", "lower"},
	{"remotemem.swap_rtt_us.p99", "us", "lower"},

	{"rmtp.server_stores", "count", "lower"},
	{"rmtp.server_fetches", "count", "lower"},
	{"rmtp.server_updates", "count", "lower"},
	{"rmtp.peak_lent_mb", "MB", "lower"},
	{"rmtp.wire_mb_up", "MB", "lower"},
	{"rmtp.wire_mb_down", "MB", "lower"},

	{"sim.events", "count", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"sim.virt_pass2_s", "s", "lower"},
	{"sim.max_pagefaults", "count", "lower"},
	{"simnet.messages", "count", "lower"},
	{"simnet.mb", "MB", "lower"},

	{"go.cpu_s", "s", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.allocs", "count", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_cpu_s", "s", "lower"},

	{"cpu.candtab_s", "s", "lower"},
	{"cpu.apriori_s", "s", "lower"},
	{"cpu.hpa_s", "s", "lower"},
	{"cpu.itemset_s", "s", "lower"},
	{"cpu.transport_s", "s", "lower"},
	{"cpu.gob_s", "s", "lower"},
	{"cpu.memtable_s", "s", "lower"},
	{"cpu.remotemem_s", "s", "lower"},
	{"cpu.rmtp_s", "s", "lower"},
	{"cpu.relay_s", "s", "lower"},
	{"cpu.net_s", "s", "lower"},
	{"cpu.syscall_s", "s", "lower"},
	{"cpu.sim_s", "s", "lower"},
	{"cpu.simnet_s", "s", "lower"},
	{"cpu.gc_s", "s", "lower"},
	{"cpu.runtime_s", "s", "lower"},
	{"cpu.other_s", "s", "lower"},

	{"trace.untraced_mine_s", "s", "lower"},
	{"trace.traced_mine_s", "s", "lower"},
	{"trace.overhead_s", "s", "lower"},
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricsOf fills every metric of defs from values, 0 where absent.
func metricsOf(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return out
}
