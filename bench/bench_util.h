// Shared helpers for the table/figure reproduction benchmarks.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "src/tools/toolkit.h"
#include "src/workloads/workloads.h"

namespace dcpi {
namespace bench {

struct RunSpec {
  ProfilingMode mode = ProfilingMode::kBase;
  double period_scale = 1.0;  // 1.0 = the paper's 60K-64K CYCLES period
  // Analysis benches densify sampling to emulate long runs; they zero the
  // handler cost so the denser interrupts do not distort the timing they
  // are trying to measure (see SystemConfig::free_profiling).
  bool free_profiling = false;
  uint32_t num_cpus = 0;      // 0 = workload default
  uint64_t kernel_seed = 1;
  uint32_t rng_seed = 1;
  std::string db_root;
  // Collection-path configuration, so the before/after benches can pit the
  // shipped Section 5.4 hash table against the 1997 baseline
  // (HashTableConfig::Legacy()); the 1997 daemon column is priced from the
  // same run's counts by LegacyDaemonCycles().
  DriverConfig driver;
  DaemonConfig daemon;
  double mem_fraction = 0.0;  // fraction of samples taken as wide records
};

struct RunOutput {
  std::unique_ptr<System> system;
  SystemResult result;
};

inline RunOutput RunProfiled(const Workload& workload, const RunSpec& spec) {
  RunOutput output;
  SystemConfig config;
  config.kernel.num_cpus = spec.num_cpus != 0 ? spec.num_cpus
                                              : std::max(1u, workload.num_cpus);
  config.kernel.seed = spec.kernel_seed;
  config.mode = spec.mode;
  config.period_scale = spec.period_scale;
  config.free_profiling = spec.free_profiling;
  config.rng_seed = spec.rng_seed;
  config.db_root = spec.db_root;
  config.driver = spec.driver;
  config.daemon = spec.daemon;
  config.mem_fraction = spec.mem_fraction;
  output.system = std::make_unique<System>(config);
  Status status = workload.Instantiate(output.system.get());
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL: workload %s failed to instantiate: %s\n",
                 workload.name.c_str(), status.ToString().c_str());
    std::exit(1);
  }
  output.result = output.system->Run();
  if (output.result.had_error) {
    std::fprintf(stderr, "FATAL: workload %s had a process error\n",
                 workload.name.c_str());
    std::exit(1);
  }
  return output;
}

// A fresh, empty scratch directory for one run of `bench`:
// <tmp>/dcpi_<bench>_<pid>. The pid keeps concurrent runs (of the same bench
// or of different ones) from deleting each other's files. The caller
// removes it when done.
inline std::string BenchScratchDir(const std::string& bench) {
  std::string root = (std::filesystem::temp_directory_path() /
                      ("dcpi_" + bench + "_" + std::to_string(::getpid())))
                         .string();
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  return root;
}

inline void PrintHeader(const char* what, const char* paper_ref) {
  std::printf("==================================================================\n");
  std::printf("%s\n", what);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("==================================================================\n\n");
}

}  // namespace bench
}  // namespace dcpi

#endif  // BENCH_BENCH_UTIL_H_
