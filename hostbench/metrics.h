// The benchmark's metric catalogue: every metric it prints, with its unit
// and better-direction. BENCHMARK.json at the repository root lists the
// same names; `hostbench --list-metrics` prints this table so run.py's
// self-test can check that the two agree.

#ifndef HOSTBENCH_METRICS_H_
#define HOSTBENCH_METRICS_H_

namespace hostbench {

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  // "lower" or "higher"
  bool end_to_end;     // printed with --trace 0; per-layer otherwise
  // Deterministic: must repeat exactly across repetitions, between the
  // traced and untraced passes, and under any host-speed change.
  bool exact;
};

inline constexpr MetricDef kMetrics[] = {
    // ---- End-to-end (untraced run) ----
    {"setup_s", "s", "lower", true, false},
    {"sim_mips", "MIPS", "higher", true, false},
    {"ingest_msamples_s", "Msamples/s", "higher", true, false},
    {"analysis_cold_s", "s", "lower", true, false},
    {"analysis_warm_s", "s", "lower", true, false},
    {"calc_p50_ms", "ms", "lower", true, false},
    {"calc_p95_ms", "ms", "lower", true, false},
    {"host_cpu_s", "s", "lower", true, false},
    {"peak_rss_mb", "MB", "lower", true, false},
    {"modelled_overhead_pct", "%", "lower", true, true},
    {"sim_cycles", "cycles", "lower", true, true},
    {"db_bytes", "bytes", "lower", true, true},
    // ---- Per-layer (traced run) ----
    {"workloads.build_ms", "ms", "lower", false, false},
    {"kernel.instantiate_ms", "ms", "lower", false, false},
    {"cpu.base_ns_per_instr", "ns", "lower", false, false},
    {"cpu.instructions", "count", "lower", false, true},
    {"cpu.issue_groups", "count", "lower", false, true},
    {"cpu.mispredicts", "count", "lower", false, true},
    {"kernel.context_switches", "count", "lower", false, true},
    {"perfctr.overhead_ns_per_instr", "ns", "lower", false, false},
    {"driver.deliver_ns_per_sample", "ns", "lower", false, false},
    {"driver.interrupts", "count", "lower", false, true},
    {"driver.hash_miss_rate", "fraction", "lower", false, true},
    {"driver.avg_probe_depth", "entries", "lower", false, true},
    {"driver.overflow_buffer_flushes", "count", "lower", false, true},
    // Waits on a slow drain thread depend on host scheduling: not exact.
    {"driver.publish_waits", "count", "lower", false, false},
    {"driver.modelled_cy_per_sample", "cycles", "lower", false, true},
    {"daemon.ingest_ns_per_record", "ns", "lower", false, false},
    {"daemon.records", "count", "lower", false, true},
    {"daemon.buffers", "count", "lower", false, true},
    {"daemon.ingest_groups", "count", "lower", false, true},
    {"daemon.unknown_frac", "fraction", "lower", false, true},
    {"daemon.modelled_cy_per_sample", "cycles", "lower", false, true},
    {"profiledb.flush_ms", "ms", "lower", false, false},
    {"profiledb.roll_ms", "ms", "lower", false, false},
    {"profiledb.seal_ms", "ms", "lower", false, false},
    {"profiledb.bytes_per_flush", "bytes", "lower", false, true},
    {"profiledb.atomic_writes_per_flush", "count", "lower", false, true},
    {"profiledb.read_ms", "ms", "lower", false, false},
    {"sim.cpu_util", "ratio", "higher", false, false},
    {"sim.sys_s", "s", "lower", false, false},
    {"analysis.cold_ms_per_proc", "ms", "lower", false, false},
    {"analysis.warm_ms_per_proc", "ms", "lower", false, false},
    {"analysis.fill_ms_per_proc", "ms", "lower", false, false},
    {"analysis.cache_hit_rate", "fraction", "higher", false, false},
    {"analysis.procedures", "count", "higher", false, true},
    {"analysis.proc_failures", "count", "lower", false, true},
    {"tools.prof_ms", "ms", "lower", false, false},
    {"calc.samples", "count", "higher", false, false},
    {"failed_frac", "fraction", "lower", false, false},
    {"trace.overhead_ms", "ms", "lower", false, false},
    {"self.workloads_ms", "ms", "lower", false, false},
    {"self.kernel_ms", "ms", "lower", false, false},
    {"self.cpu_ms", "ms", "lower", false, false},
    {"self.driver_ms", "ms", "lower", false, false},
    {"self.daemon_ms", "ms", "lower", false, false},
    {"self.profiledb_ms", "ms", "lower", false, false},
    {"self.analysis_ms", "ms", "lower", false, false},
    {"self.tools_ms", "ms", "lower", false, false},
};

}  // namespace hostbench

#endif  // HOSTBENCH_METRICS_H_
