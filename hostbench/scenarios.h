// The benchmark's three workloads and the measurements taken on them.
//
//   gcc_batch       WorkloadFactory::GccLike() on 1 simulated CPU, default
//                   mode (CYCLES+IMISS), period scale 1/16; sequential
//                   collection path.
//   timesharing_mp  WorkloadFactory::Timesharing(2) on 2 simulated CPUs
//                   through the threaded collection path.
//   ingest_query    a recorded gcc sample stream replayed through a fresh
//                   driver -> daemon -> profile database over several
//                   epochs, then queried the way the tools do.
//
// Every workload ends with the same query phase over the database it
// produced (dcpiprof ranking, whole-database analysis cold then warm,
// per-procedure dcpicalc analysis), so every end-to-end metric is measured
// on every workload.

#ifndef HOSTBENCH_SCENARIOS_H_
#define HOSTBENCH_SCENARIOS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hostbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;       // scratch space for databases and outputs
  std::string trace_path;    // where the traced run writes its spans
  bool tiny = false;         // self-test sizes
};

struct RunOutcome {
  // name -> value; end-to-end metrics without --trace, per-layer with it.
  std::map<std::string, double> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // what failed, one line each
  // Workload parameters recorded with the result (scale, CPUs, jobs, ...).
  std::map<std::string, std::string> meta;
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload. Unknown names are reported as a failure.
RunOutcome RunWorkload(const RunOptions& options);

}  // namespace hostbench

#endif  // HOSTBENCH_SCENARIOS_H_
