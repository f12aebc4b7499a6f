// hostbench: host-speed benchmark of the DCPI reproduction.
//
//   hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--results <file>] [--trace-out <file>]
//             [--commit <id>]
//   hostbench --selftest --workdir <dir>
//   hostbench --list-metrics
//
// A run prints progress and failures on stderr, one {"meta": ...} line and
// then, as its last stdout line, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). --results writes the same result plus its metadata and the
// failure list to a file. The self-test runs every workload at tiny sizes,
// twice per mode in one process, and checks that every metric is emitted,
// that no output check fails, and that every exact metric repeats exactly.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>

#include "hostbench/metrics.h"
#include "hostbench/scenarios.h"

namespace hostbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// The metrics this mode prints, in catalogue order. A missing or
// non-finite value is an output-check failure.
std::map<std::string, double> Selected(RunOutcome* outcome, bool trace) {
  std::map<std::string, double> selected;
  for (const MetricDef& def : kMetrics) {
    if (def.end_to_end == trace) continue;
    auto it = outcome->metrics.find(def.name);
    bool ok = it != outcome->metrics.end() && std::isfinite(it->second);
    ++outcome->attempted;
    if (!ok) {
      ++outcome->failed;
      outcome->failures.push_back(std::string("metric not measured: ") + def.name);
    }
    selected[def.name] = ok ? it->second : 0;
  }
  return selected;
}

const char* UnitOf(const std::string& name) {
  for (const MetricDef& def : kMetrics) {
    if (name == def.name) return def.unit;
  }
  return "";
}

std::string MetaJson(const RunOptions& opt, const RunOutcome& outcome, const std::string& commit) {
  std::map<std::string, std::string> meta = outcome.meta;
  meta["workload"] = opt.workload;
  meta["seed"] = std::to_string(opt.seed);
  meta["seconds"] = Number(opt.seconds);
  meta["trace"] = opt.trace ? "1" : "0";
  meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  meta["compiler"] = __VERSION__;
  meta["build_type"] = HOSTBENCH_BUILD_TYPE;
#ifdef DCPI_LOCK_RANK_CHECKS
  meta["lock_rank_checks"] = "ON";
#else
  meta["lock_rank_checks"] = "OFF";
#endif
  meta["commit"] = commit;
  std::string json = "{";
  const char* sep = "";
  for (const auto& [key, value] : meta) {
    json += sep + JsonString(key) + ": " + JsonString(value);
    sep = ", ";
  }
  return json + "}";
}

std::string ResultJson(const RunOutcome& outcome, const std::map<std::string, double>& metrics) {
  std::string json = std::string("{\"correct\": ") + (outcome.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(outcome.attempted) +
                     ", \"failed\": " + std::to_string(outcome.failed) + ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, value] : metrics) {
    json += sep + JsonString(name) + ": {\"value\": " + Number(value) +
            ", \"unit\": " + JsonString(UnitOf(name)) + "}";
    sep = ", ";
  }
  return json + "}}";
}

int RunOnce(const RunOptions& opt, const std::string& results_path, const std::string& commit) {
  std::fprintf(stderr, "hostbench: %s seed %llu, %.0f s, trace %d\n", opt.workload.c_str(),
               static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  RunOutcome outcome = RunWorkload(opt);
  std::map<std::string, double> metrics = Selected(&outcome, opt.trace);
  for (const std::string& failure : outcome.failures) {
    std::fprintf(stderr, "hostbench: FAILED %s\n", failure.c_str());
  }
  std::string meta = MetaJson(opt, outcome, commit);
  std::string result = ResultJson(outcome, metrics);
  if (!results_path.empty()) {
    if (std::FILE* f = std::fopen(results_path.c_str(), "w")) {
      std::string failures = "[";
      const char* sep = "";
      for (const std::string& failure : outcome.failures) {
        failures += sep + JsonString(failure);
        sep = ", ";
      }
      std::fprintf(f, "{\"meta\": %s,\n \"failures\": %s],\n \"result\": %s}\n", meta.c_str(),
                   failures.c_str(), result.c_str());
      std::fclose(f);
    }
  }
  std::printf("{\"meta\": %s}\n%s\n", meta.c_str(), result.c_str());
  std::fflush(stdout);
  return 0;
}

int SelfTest(const std::string& workdir) {
  int failures = 0;
  for (const std::string& workload : WorkloadNames()) {
    for (bool trace : {false, true}) {
      RunOptions opt;
      opt.workload = workload;
      opt.seed = 7;
      opt.seconds = 0.1;
      opt.trace = trace;
      opt.tiny = true;
      opt.workdir = workdir + "/" + workload;
      RunOutcome first = RunWorkload(opt);
      RunOutcome second = RunWorkload(opt);
      std::map<std::string, double> a = Selected(&first, trace);
      std::map<std::string, double> b = Selected(&second, trace);
      std::string problems;
      for (const RunOutcome* run : {&first, &second}) {
        for (const std::string& f : run->failures) problems += "\n    " + f;
      }
      for (const MetricDef& def : kMetrics) {
        if (def.end_to_end == trace || !def.exact) continue;
        if (a[def.name] != b[def.name]) {
          problems += "\n    exact metric " + std::string(def.name) + " differs: " +
                      Number(a[def.name]) + " vs " + Number(b[def.name]);
        }
      }
      std::printf("selftest %-15s trace %d: %zu metrics, %llu checks: %s%s\n", workload.c_str(),
                  trace ? 1 : 0, a.size(),
                  static_cast<unsigned long long>(first.attempted + second.attempted),
                  problems.empty() ? "ok" : "FAILED", problems.c_str());
      if (!problems.empty()) ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir> [--results <file>] [--trace-out <file>] [--commit <id>]\n"
               "       hostbench --selftest --workdir <dir>\n"
               "       hostbench --list-metrics\n");
  return 2;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  using namespace hostbench;
  RunOptions opt;
  std::string results_path;
  std::string commit = "unknown";
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--list-metrics") {
      for (const MetricDef& def : kMetrics) {
        std::printf("%s %s %s %s\n", def.end_to_end ? "end_to_end" : "per_layer", def.name,
                    def.unit, def.better);
      }
      return 0;
    }
    if (flag == "--selftest") {
      selftest = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage();
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0)) return Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      opt.trace = value == "1";
    } else if (flag == "--workdir") {
      opt.workdir = value;
    } else if (flag == "--results") {
      results_path = value;
    } else if (flag == "--trace-out") {
      opt.trace_path = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage();
    }
  }
  if (opt.workdir.empty()) return Usage();
  if (selftest) return SelfTest(opt.workdir);
  bool known = false;
  for (const std::string& name : WorkloadNames()) known = known || name == opt.workload;
  if (!known) {
    std::fprintf(stderr, "hostbench: unknown workload '%s'\n", opt.workload.c_str());
    return Usage();
  }
  return RunOnce(opt, results_path, commit);
}
