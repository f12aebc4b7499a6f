#include "hostbench/scenarios.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <thread>

#include "hostbench/ledger.h"
#include "src/analysis/engine.h"
#include "src/check/selfcheck.h"
#include "src/profiledb/database.h"
#include "src/sim/system.h"
#include "src/support/binary_io.h"
#include "src/tools/dcpiprof.h"
#include "src/workloads/workloads.h"

namespace hostbench {
namespace {

namespace fs = std::filesystem;

using dcpi::AnalysisConfig;
using dcpi::AnalysisEngine;
using dcpi::AnalysisInput;
using dcpi::Daemon;
using dcpi::DcpiDriver;
using dcpi::EventType;
using dcpi::ExecutableImage;
using dcpi::ImageProfile;
using dcpi::Kernel;
using dcpi::ProfileDatabase;
using dcpi::ProfilingMode;
using dcpi::SampleKey;
using dcpi::Status;
using dcpi::System;
using dcpi::SystemConfig;
using dcpi::Workload;
using dcpi::WorkloadFactory;
using ImageSet = std::vector<std::shared_ptr<const ExecutableImage>>;

// Seeds: the simulated programs are the same for every seed; --seed
// seeds the counters' period randomization, so each seed profiles the same
// code but draws a different sample stream (which PCs are sampled, where
// interrupts land, what reaches the daemon and the database).

// Whole-database analysis runs with a fixed job count, so the number does
// not depend on the host's core count.
constexpr int kAnalysisJobs = 2;

// ---------------------------------------------------------------------------
// Measurement utilities

struct CpuTime {
  double user = 0;
  double sys = 0;
  double total() const { return user + sys; }
};

double TvSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

CpuTime ProcessCpuTime() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {TvSeconds(ru.ru_utime), TvSeconds(ru.ru_stime)};
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Returns to the system the heap that freed objects left in the allocator's
// per-thread arenas. Called between repetitions, outside every timed region,
// so that peak_rss_mb is the peak of one repetition instead of growing with
// whatever earlier repetitions' short-lived threads left behind.
void ReleaseFreedHeap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile of an unsorted sample.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// FNV-1a over every file of a database (sorted relative path + contents),
// skipping the analysis caches. Equal digests mean byte-identical profiles,
// seal markers and epoch layout.
std::string DbDigest(const std::string& root) {
  std::vector<fs::path> files;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(root, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->path().filename() == ".cache") {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file()) files.push_back(fs::relative(it->path(), root));
  }
  std::sort(files.begin(), files.end());
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const uint8_t* p, size_t n) {
    for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  };
  for (const fs::path& rel : files) {
    std::string name = rel.generic_string();
    mix(reinterpret_cast<const uint8_t*>(name.data()), name.size() + 1);
    std::vector<uint8_t> bytes;
    if (!dcpi::ReadFile((fs::path(root) / rel).string(), &bytes).ok()) return "unreadable";
    mix(bytes.data(), bytes.size());
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return std::string(hex) + "/" + std::to_string(files.size());
}

void Check(RunOutcome* out, bool ok, const std::string& what) {
  ++out->attempted;
  if (ok) return;
  ++out->failed;
  if (out->failures.size() < 32) out->failures.push_back(what);
}

// Deterministic results of one repetition, compared field by field across
// repetitions and between the traced and untraced passes.
using Fingerprint = std::map<std::string, std::string>;

void CheckSameFingerprint(RunOutcome* out, const Fingerprint& want, const Fingerprint& got,
                          const std::string& what) {
  std::string diff;
  for (const auto& [key, value] : want) {
    auto it = got.find(key);
    std::string other = it == got.end() ? "<missing>" : it->second;
    if (other != value) diff += " " + key + "=" + value + "->" + other;
  }
  Check(out, diff.empty(), what + " differs:" + diff);
}

std::string U(uint64_t v) { return std::to_string(v); }

std::string D(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Deterministic results of one repetition: the exact counts reported as
// per-layer metrics, and the fingerprint (those counts plus cycles, bytes
// and the database digest) compared across repetitions.
struct ExactResults {
  std::map<std::string, double> counts;
  Fingerprint fingerprint;

  void Exact(const std::string& metric, double value) {
    counts[metric] = value;
    fingerprint[metric] = D(value);
  }
};

// Simulator counts of a finished run, summed over its CPUs. Returns the
// instruction count.
uint64_t RecordCpuCounts(Kernel& kernel, ExactResults* r) {
  dcpi::CpuStats total;
  for (uint32_t cpu = 0; cpu < kernel.num_cpus(); ++cpu) {
    const dcpi::CpuStats& s = kernel.cpu(cpu).stats();
    total.instructions += s.instructions;
    total.issue_groups += s.issue_groups;
    total.mispredicts += s.mispredicts;
    total.context_switches += s.context_switches;
  }
  r->Exact("cpu.instructions", static_cast<double>(total.instructions));
  r->Exact("cpu.issue_groups", static_cast<double>(total.issue_groups));
  r->Exact("cpu.mispredicts", static_cast<double>(total.mispredicts));
  r->Exact("kernel.context_switches", static_cast<double>(total.context_switches));
  r->fingerprint["elapsed_cycles"] = U(kernel.ElapsedCycles());
  return total.instructions;
}

// Driver and daemon counts after the final flush. `buffers` is the number
// of ProcessBuffer calls a wrapped overflow handler saw (traced runs only).
// Returns the samples the daemon ingested (attributed + unknown).
uint64_t RecordPipelineCounts(const DcpiDriver& driver, const Daemon& daemon, uint64_t buffers,
                              ExactResults* r) {
  dcpi::DriverCpuStats drv = driver.TotalStats();
  dcpi::DaemonStats dmn = daemon.stats();
  uint64_t ingested = dmn.samples_attributed + dmn.samples_unknown;
  auto per_sample = [ingested](uint64_t v) {
    return ingested == 0 ? 0.0 : static_cast<double>(v) / static_cast<double>(ingested);
  };
  r->Exact("driver.interrupts", static_cast<double>(drv.interrupts));
  r->Exact("driver.hash_miss_rate", drv.MissRate());
  r->Exact("driver.avg_probe_depth", driver.TotalTableStats().AvgProbeDepth());
  r->Exact("driver.overflow_buffer_flushes", static_cast<double>(drv.overflow_buffer_flushes));
  r->Exact("driver.modelled_cy_per_sample", drv.AvgInterruptCost());
  r->counts["driver.publish_waits"] = static_cast<double>(drv.publish_waits);
  r->Exact("daemon.records", static_cast<double>(dmn.records_processed));
  r->counts["daemon.buffers"] = static_cast<double>(buffers);
  r->Exact("daemon.ingest_groups", static_cast<double>(dmn.ingest_groups));
  r->Exact("daemon.unknown_frac", per_sample(dmn.samples_unknown));
  r->Exact("daemon.modelled_cy_per_sample", per_sample(dmn.daemon_cycles));
  r->fingerprint["handler_cycles"] = U(drv.handler_cycles);
  r->fingerprint["daemon_cycles"] = U(dmn.daemon_cycles);
  return ingested;
}

// Per-repetition values, recorded with the result to show host noise.
std::string List(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), "%s%.4g", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

// Writes performed and bytes serialized by database calls, read around the
// profiledb spans of the traced pass. The write count comes from a
// never-armed FaultInjectingEnv, which only counts WriteFileAtomic calls.
struct DbWriteTally {
  uint64_t flushes = 0;
  uint64_t bytes = 0;
  uint64_t writes = 0;
};

int AtomicWritesSoFar() {
  dcpi::FaultInjectingEnv* env = dcpi::GetFaultInjectingEnv();
  return env == nullptr ? 0 : env->writes_attempted();
}

Status TallyFlush(Ledger* ledger, DbWriteTally* tally, const ProfileDatabase* db,
                  const std::function<Status()>& flush) {
  uint64_t bytes0 = db == nullptr ? 0 : db->bytes_written();
  int writes0 = AtomicWritesSoFar();
  Status status = Status::Ok();
  {
    // Without a database the daemon's flush only drains the driver.
    Scope span(ledger, db == nullptr ? "driver.flush_all" : "profiledb.flush");
    status = flush();
  }
  if (tally != nullptr && db != nullptr) {
    ++tally->flushes;
    tally->bytes += (db == nullptr ? 0 : db->bytes_written()) - bytes0;
    tally->writes += static_cast<uint64_t>(AtomicWritesSoFar() - writes0);
  }
  return status;
}

// ---------------------------------------------------------------------------
// Probes for the traced pass: a forwarding sample sink between the counters
// and the driver, and a wrapper around the daemon's overflow handler.

// Set while a TimedSink delivery runs on this thread, so that a daemon
// ingest the delivery triggers (an inline buffer drain) is not counted as
// delivery time as well.
thread_local bool in_delivery = false;
thread_local int64_t nested_ingest_ns = 0;

int64_t ElapsedNs(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
}

// A forwarding sample sink between the counters and the driver. It times
// every delivery and adds it to the delivering CPU's tally; FlushInto turns
// a tally into one aggregate span, since a span per sample would cost more
// than the delivery it measures.
class TimedSink : public dcpi::SampleSink {
 public:
  TimedSink(DcpiDriver* driver, uint32_t num_cpus, const char* span_name)
      : driver_(driver), tallies_(num_cpus), span_name_(span_name) {}

  uint64_t DeliverSample(uint32_t cpu_id, uint32_t pid, uint64_t pc,
                         EventType event) override {
    return Timed(cpu_id, [&] { return driver_->DeliverSample(cpu_id, pid, pc, event); });
  }
  uint64_t DeliverWideSample(uint32_t cpu_id, const dcpi::WideSampleRecord& record) override {
    return Timed(cpu_id, [&] { return driver_->DeliverWideSample(cpu_id, record); });
  }

  // Records `cpu`'s deliveries since the last call as one span under the
  // calling thread's innermost open span. Call from the thread that
  // simulates `cpu`.
  void FlushInto(Ledger* ledger, uint32_t cpu) {
    Tally& t = tallies_[cpu];
    ledger->AddAggregate(span_name_, t.ns, t.calls);
    t = Tally();
  }

 private:
  struct alignas(64) Tally {
    int64_t ns = 0;
    uint64_t calls = 0;
  };

  template <typename Fn>
  uint64_t Timed(uint32_t cpu_id, Fn deliver) {
    in_delivery = true;
    nested_ingest_ns = 0;
    Clock::time_point start = Clock::now();
    uint64_t cost = deliver();
    tallies_[cpu_id].ns += ElapsedNs(start) - nested_ingest_ns;
    ++tallies_[cpu_id].calls;
    in_delivery = false;
    return cost;
  }

  DcpiDriver* driver_;
  std::vector<Tally> tallies_;
  const char* span_name_;
};

// The counters System would build for `cpu` (same events, periods and
// seed), so a probe-fed run samples exactly like the untraced one.
dcpi::PerfCountersConfig CountersFor(const SystemConfig& config, uint32_t cpu) {
  dcpi::PerfCountersConfig counters;
  switch (config.mode) {
    case ProfilingMode::kCycles:
      counters = dcpi::PerfCountersConfig::Cycles();
      break;
    case ProfilingMode::kDefault:
      counters = dcpi::PerfCountersConfig::Default();
      break;
    case ProfilingMode::kMux:
      counters = dcpi::PerfCountersConfig::Mux();
      break;
    case ProfilingMode::kBase:
      break;
  }
  counters.double_sampling = config.double_sampling;
  counters.mem_fraction = config.mem_fraction;
  if (config.period_scale != 1.0) counters = counters.WithPeriodScale(config.period_scale);
  counters.rng_seed = config.rng_seed + cpu * 0x9e3779b1u;
  return counters;
}

void WrapOverflowHandler(DcpiDriver* driver, Daemon* daemon, Ledger* ledger,
                         std::atomic<uint64_t>* buffers) {
  driver->set_overflow_handler(
      [daemon, ledger, buffers](uint32_t cpu, const std::vector<dcpi::OverflowRecord>& records) {
        Clock::time_point start = Clock::now();
        {
          Scope span(ledger, "daemon.ingest");
          span.set_ops(records.size());
          buffers->fetch_add(1, std::memory_order_relaxed);
          daemon->ProcessBuffer(cpu, records);
        }
        if (in_delivery) nested_ingest_ns += ElapsedNs(start);
      });
}

struct Probes {
  std::unique_ptr<TimedSink> sink;
  std::vector<std::unique_ptr<dcpi::PerfCounters>> counters;
  std::atomic<uint64_t> buffers{0};

  // Swaps the system's counters for probe-fed twins and wraps the daemon.
  void Install(System* system, const SystemConfig& config, Ledger* ledger,
               const char* deliver_span = "driver.deliver") {
    if (system->driver() == nullptr) return;
    sink = std::make_unique<TimedSink>(system->driver(), config.kernel.num_cpus, deliver_span);
    for (uint32_t cpu = 0; cpu < config.kernel.num_cpus; ++cpu) {
      counters.push_back(
          std::make_unique<dcpi::PerfCounters>(cpu, CountersFor(config, cpu), sink.get()));
      system->kernel().SetMonitor(cpu, counters.back().get());
    }
    WrapOverflowHandler(system->driver(), system->daemon(), ledger, &buffers);
  }
};

// System::Run, driven call by call from the same public entry points
// (Kernel::Run / RunCpuShard, DcpiDriver::FlushAll / FlushCpu, the daemon's
// loader-event, tick, drain-thread and flush calls), with a span around
// each. The database it writes must be byte-identical to System::Run's.
Status TracedRun(System* system, const SystemConfig& config, uint64_t max_cycles,
                 Ledger* ledger, TimedSink* sink, DbWriteTally* tally) {
  Kernel& kernel = system->kernel();
  Daemon* daemon = system->daemon();
  DcpiDriver* driver = system->driver();
  const char* run_span = daemon == nullptr ? "cpu.base_run" : "kernel.run";
  auto loader_events = [&] {
    if (daemon == nullptr) return;
    Scope span(ledger, "daemon.loader_events");
    daemon->ProcessLoaderEvents(kernel.DrainLoaderEvents());
  };
  loader_events();
  if (config.threaded_collection && config.kernel.num_cpus > 1) {
    if (daemon != nullptr) {
      loader_events();
      daemon->StartDrainThread();
    }
    std::vector<std::thread> workers;
    for (uint32_t cpu = 0; cpu < kernel.num_cpus(); ++cpu) {
      workers.emplace_back([&, cpu] {
        uint64_t next_drain = kernel.cpu(cpu).now() + config.daemon_drain_interval;
        while (true) {
          uint64_t chunk_end = std::min(max_cycles, next_drain);
          bool done = false;
          {
            Scope span(ledger, run_span);
            done = kernel.RunCpuShard(cpu, chunk_end);
            if (sink != nullptr) sink->FlushInto(ledger, cpu);
          }
          if (driver != nullptr) {
            Scope span(ledger, "driver.flush_cpu");
            driver->FlushCpu(cpu);
          }
          if (daemon != nullptr) daemon->PublishSimTime(kernel.cpu(cpu).now());
          if (done || kernel.cpu(cpu).now() >= max_cycles) break;
          next_drain += config.daemon_drain_interval;
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
    if (daemon != nullptr) {
      Scope span(ledger, "daemon.stop_drain");
      daemon->StopDrainThread();
    }
  } else {
    uint64_t next_drain = kernel.ElapsedCycles() + config.daemon_drain_interval;
    while (true) {
      uint64_t chunk_end = std::min(max_cycles, next_drain);
      {
        Scope span(ledger, run_span);
        kernel.Run(chunk_end);
        for (uint32_t cpu = 0; sink != nullptr && cpu < kernel.num_cpus(); ++cpu) {
          sink->FlushInto(ledger, cpu);
        }
      }
      if (daemon != nullptr) {
        {
          Scope span(ledger, "driver.flush_all");
          driver->FlushAll();
        }
        loader_events();
        Scope span(ledger, "daemon.tick");
        (void)daemon->TickAtQuiescePoint(kernel.ElapsedCycles());
      }
      bool all_done = true;
      for (const auto& p : kernel.processes()) {
        if (p->state() != dcpi::ProcessState::kDone) all_done = false;
      }
      if (all_done || kernel.ElapsedCycles() >= max_cycles) break;
      next_drain += config.daemon_drain_interval;
    }
  }
  if (daemon == nullptr) return Status::Ok();
  loader_events();
  Status ticked = Status::Ok();
  {
    Scope span(ledger, "daemon.tick");
    ticked = daemon->TickAtQuiescePoint(kernel.ElapsedCycles());
  }
  Status flushed = TallyFlush(ledger, tally, system->database(),
                              [daemon] { return daemon->FlushToDatabase(); });
  return flushed.ok() ? ticked : flushed;
}

// ---------------------------------------------------------------------------
// Query phase, shared by every workload: what the tools do with a database.

struct QueryStats {
  double fill_s = 0;  // cold pass into an empty cache (0: not run)
  double cold_s = 0;
  double warm_s = 0;
  std::vector<double> calc_ms;
  uint64_t procedures = 0;     // per whole-database pass, over all epochs
  uint64_t proc_failures = 0;  // in the uncached pass
  uint64_t warm_hits = 0;
  uint64_t warm_misses = 0;
};

dcpi::AnalyzeFn CheckedAnalyze() {
  return [](const ExecutableImage& image, const dcpi::ProcedureSymbol& proc,
            const ImageProfile& cycles, const ImageProfile* imiss, const ImageProfile* dmiss,
            const ImageProfile* branchmp, const ImageProfile* dtbmiss,
            const AnalysisConfig& config, dcpi::AnalysisScratch* scratch) {
    return dcpi::AnalyzeProcedureChecked(image, proc, cycles, imiss, dmiss, branchmp, dtbmiss,
                                         config, scratch);
  };
}

bool SameAnalyses(const dcpi::DatabaseAnalysis& a, const dcpi::DatabaseAnalysis& b) {
  if (a.per_epoch.size() != b.per_epoch.size()) return false;
  for (size_t e = 0; e < a.per_epoch.size(); ++e) {
    const auto& x = a.per_epoch[e].analysis.procedures;
    const auto& y = b.per_epoch[e].analysis.procedures;
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i].status.ok() != y[i].status.ok()) return false;
      if (x[i].status.ok() && dcpi::SerializeProcedureAnalysis(x[i].analysis) !=
                                  dcpi::SerializeProcedureAnalysis(y[i].analysis)) {
        return false;
      }
    }
  }
  return true;
}

// One pass of what the tools do with a database: a dcpiprof ranking of
// the latest epoch; dcpicheck's whole-database analysis with no cache
// ("cold") and then against the per-epoch caches ("warm"); and dcpicalc's
// per-procedure analysis of every procedure of the latest epoch, no cache.
// With `fill_cache` the caches are first emptied and refilled by a cached
// pass, which stores one atomically written entry per procedure.
QueryStats RunQuery(const std::string& root, const ImageSet& images, bool fill_cache,
                    Ledger* ledger, RunOutcome* out) {
  QueryStats stats;
  std::unique_ptr<ProfileDatabase> db;
  {
    Scope span(ledger, "profiledb.open");
    db = std::make_unique<ProfileDatabase>(root, dcpi::DbOpenMode::kReadOnly);
  }
  std::vector<uint32_t> epochs = db->ListSealedEpochs();
  Check(out, !epochs.empty(), "query: no sealed epoch in " + root);
  if (epochs.empty()) return stats;
  const uint32_t latest = epochs.back();

  // dcpiprof over the latest epoch: read the profiles, rank procedures.
  std::vector<std::unique_ptr<ImageProfile>> profiles;
  std::vector<AnalysisInput> inputs;
  std::vector<dcpi::ProfInput> prof_inputs;
  uint64_t read_samples = 0;
  {
    Scope span(ledger, "profiledb.read");
    for (const auto& image : images) {
      auto cycles = db->ReadProfile(latest, image->name(), EventType::kCycles);
      if (!cycles.ok()) continue;  // image never sampled this epoch
      profiles.push_back(std::make_unique<ImageProfile>(std::move(cycles).value()));
      AnalysisInput input;
      input.image = image;
      input.cycles = profiles.back().get();
      read_samples += input.cycles->total_samples();
      auto imiss = db->ReadProfile(latest, image->name(), EventType::kImiss);
      if (imiss.ok()) {
        profiles.push_back(std::make_unique<ImageProfile>(std::move(imiss).value()));
        input.imiss = profiles.back().get();
      }
      inputs.push_back(input);
      prof_inputs.push_back({image, input.cycles, input.imiss});
    }
    span.set_ops(profiles.size());
  }
  std::vector<dcpi::ProcedureRow> rows;
  {
    Scope span(ledger, "tools.prof");
    rows = dcpi::ListProcedures(prof_inputs);
  }
  uint64_t ranked = 0;
  for (const auto& row : rows) ranked += row.cycles_samples;
  Check(out, !rows.empty() && ranked == read_samples,
        "dcpiprof ranking covers " + U(ranked) + " of " + U(read_samples) + " samples");

  // Whole-database analysis (dcpicheck's call).
  dcpi::EngineOptions engine_options;
  engine_options.jobs = kAnalysisJobs;
  engine_options.analyze = CheckedAnalyze();
  AnalysisEngine engine(engine_options);
  AnalysisConfig check_config;
  check_config.selfcheck = true;
  dcpi::DatabaseAnalysisOptions cached;
  cached.epochs = epochs;
  dcpi::DatabaseAnalysisOptions uncached = cached;
  uncached.use_cache = false;
  auto analyze = [&](const char* span_name, const dcpi::DatabaseAnalysisOptions& options,
                     double* seconds) {
    Clock::time_point t0 = Clock::now();
    Scope span(ledger, span_name);
    dcpi::DatabaseAnalysis result = engine.AnalyzeDatabase(*db, images, check_config, options);
    *seconds = SecondsSince(t0);
    return result;
  };
  if (fill_cache) {
    for (uint32_t epoch : epochs) {
      std::error_code ec;
      fs::remove_all(db->EpochCacheDir(epoch), ec);
    }
    dcpi::DatabaseAnalysis filled = analyze("analysis.fill", cached, &stats.fill_s);
    Check(out, filled.cache_hits == 0, "cache fill found " + U(filled.cache_hits) + " entries");
  }
  dcpi::DatabaseAnalysis cold = analyze("analysis.cold", uncached, &stats.cold_s);
  dcpi::DatabaseAnalysis warm = analyze("analysis.warm", cached, &stats.warm_s);
  stats.warm_hits = warm.cache_hits;
  stats.warm_misses = warm.cache_misses;
  for (const auto& epoch : cold.per_epoch) {
    for (const auto& proc : epoch.analysis.procedures) {
      ++stats.procedures;
      bool ok = proc.status.ok();
      if (!ok) ++stats.proc_failures;
      Check(out, ok,
            "analysis of " + proc.image_name + ":" + proc.proc.name + " in epoch " +
                U(epoch.epoch) + ": " + proc.status.ToString());
    }
  }
  Check(out, stats.procedures > 0, "whole-database analysis found no procedures");
  // Comparing every analysis costs about as much as the analysis itself,
  // so it is checked on the pass that filled the cache.
  if (fill_cache) {
    Check(out, SameAnalyses(cold, warm), "warm analysis differs from the uncached analysis");
  }
  Check(out, warm.cache_misses == 0 && warm.cache_hits == stats.procedures,
        "warm analysis hit rate " + U(warm.cache_hits) + "/" +
            U(warm.cache_hits + warm.cache_misses));

  // dcpicalc: every procedure of the latest epoch, no cache.
  dcpi::EngineOptions calc_options;
  calc_options.jobs = 1;
  calc_options.analyze = CheckedAnalyze();
  AnalysisEngine calc(calc_options);
  AnalysisConfig calc_config;
  for (const AnalysisInput& input : inputs) {
    for (const auto& proc : input.image->procedures()) {
      Clock::time_point start = Clock::now();
      dcpi::ProcedureResult result;
      {
        Scope span(ledger, "analysis.calc");
        result = calc.AnalyzeOne(input, proc, calc_config);
      }
      stats.calc_ms.push_back(SecondsSince(start) * 1e3);
      Check(out, result.status.ok(),
            "dcpicalc " + input.image->name() + ":" + proc.name + ": " +
                result.status.ToString());
    }
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Collection workloads: gcc_batch and timesharing_mp.

struct CollectSpec {
  uint32_t cpus = 1;
  double scale = 1.0;
  // The collection is split at this simulated time by an epoch roll, so
  // the database has two sealed epochs and every epoch operation runs.
  uint64_t split_cycles = 0;
  std::function<Workload(WorkloadFactory&)> make;
};

struct Instance {
  Workload workload;
  SystemConfig config;
  std::unique_ptr<System> system;
  double setup_s = 0;
};

Instance SetUp(const CollectSpec& spec, ProfilingMode mode, uint64_t seed,
               const std::string& db_root, Ledger* ledger, RunOutcome* out) {
  if (!db_root.empty()) {
    std::error_code ec;
    fs::remove_all(db_root, ec);
  }
  Instance inst;
  inst.config.kernel.num_cpus = spec.cpus;
  inst.config.mode = mode;
  inst.config.period_scale = 1.0 / 16;
  inst.config.rng_seed = static_cast<uint32_t>(seed);
  inst.config.db_root = mode == ProfilingMode::kBase ? "" : db_root;
  Clock::time_point t0 = Clock::now();
  {
    Scope span(ledger, "workloads.build");
    WorkloadFactory factory(spec.scale);  // same programs for every seed
    inst.workload = spec.make(factory);
  }
  {
    Scope span(ledger, "kernel.instantiate");
    inst.system = std::make_unique<System>(inst.config);
    Status status = inst.workload.Instantiate(inst.system.get());
    Check(out, status.ok(), "instantiate " + inst.workload.name + ": " + status.ToString());
  }
  inst.setup_s = SecondsSince(t0);
  return inst;
}

ImageSet ImagesOf(const Workload& workload, const Kernel& kernel) {
  ImageSet images;
  std::set<const ExecutableImage*> seen;
  auto add = [&](const std::shared_ptr<const ExecutableImage>& image) {
    if (image != nullptr && seen.insert(image.get()).second) images.push_back(image);
  };
  add(kernel.vmunix());
  for (const auto& process : workload.processes) {
    for (const auto& image : process.images) add(image);
  }
  return images;
}

struct CollectResult : ExactResults {
  double wall_s = 0;  // Run .. Seal
  CpuTime cpu;
  uint64_t instructions = 0;
  uint64_t samples = 0;
  double overhead_pct = 0;
  uint64_t elapsed = 0;
  uint64_t db_bytes = 0;
};

CollectResult Collect(Instance* inst, const CollectSpec& spec, Ledger* ledger,
                      DbWriteTally* tally, RunOutcome* out) {
  System* system = inst->system.get();
  const bool profiling = system->daemon() != nullptr;
  Probes probes;
  if (ledger != nullptr) probes.Install(system, inst->config, ledger);

  CollectResult r;
  CpuTime cpu0 = ProcessCpuTime();
  Clock::time_point t0 = Clock::now();
  Status run1 = Status::Ok();
  Status run2 = Status::Ok();
  Status roll = Status::Ok();
  Status seal = Status::Ok();
  if (ledger == nullptr) {
    run1 = system->Run(spec.split_cycles).had_error ? dcpi::IoError("run") : Status::Ok();
    roll = system->RollEpoch();
    run2 = system->Run().had_error ? dcpi::IoError("run") : Status::Ok();
    seal = system->SealCurrentEpoch();
  } else {
    Scope root(ledger, profiling ? "bench.collect" : "bench.base");
    ledger->set_root(root.id());
    run1 = TracedRun(system, inst->config, spec.split_cycles, ledger, probes.sink.get(), tally);
    {
      Scope span(ledger, "profiledb.roll");
      roll = system->RollEpoch();
    }
    run2 = TracedRun(system, inst->config, ~0ull, ledger, probes.sink.get(), tally);
    {
      Scope span(ledger, "profiledb.seal");
      seal = system->SealCurrentEpoch();
    }
  }
  r.wall_s = SecondsSince(t0);
  CpuTime cpu1 = ProcessCpuTime();
  r.cpu = {cpu1.user - cpu0.user, cpu1.sys - cpu0.sys};

  Kernel& kernel = system->kernel();
  const std::string label = std::string(profiling ? "" : "base ") + inst->workload.name;
  Check(out, !kernel.HadProcessError(),
        label + ": a process faulted (kBadMemory or kBadPc; the kernel does not say which)");
  if (profiling) {
    Check(out, run1.ok() && run2.ok(), label + ": profile flush failed");
    Check(out, roll.ok(), label + ": epoch roll failed: " + roll.ToString());
    Check(out, seal.ok(), label + ": seal failed: " + seal.ToString());
  }

  r.instructions = RecordCpuCounts(kernel, &r);
  r.elapsed = kernel.ElapsedCycles();
  if (!profiling) return r;

  const DcpiDriver& driver = *system->driver();
  const Daemon& daemon = *system->daemon();
  uint64_t ingested = RecordPipelineCounts(driver, daemon, probes.buffers.load(), &r);
  r.samples = driver.TotalStats().interrupts;
  Check(out, ingested == r.samples,
        label + ": daemon ingested " + U(ingested) + " of " + U(r.samples) +
            " delivered samples");
  r.overhead_pct = 100.0 *
                   static_cast<double>(driver.TotalStats().handler_cycles +
                                       daemon.stats().daemon_cycles) /
                   (static_cast<double>(r.elapsed) * kernel.num_cpus());
  r.db_bytes = system->database()->DiskUsageBytes();
  r.fingerprint["db_bytes"] = U(r.db_bytes);
  r.fingerprint["db_digest"] = DbDigest(inst->config.db_root);
  r.fingerprint["overhead_pct"] = D(r.overhead_pct);
  return r;
}

// ---------------------------------------------------------------------------
// Metric assembly

struct QueryTotals {
  std::vector<double> fill_s;
  std::vector<double> cold_s;
  std::vector<double> warm_s;
  // Per pass: latency percentiles over its per-procedure analyses. At
  // about 250 procedures a pass, p95 is the highest percentile with at
  // least 10 samples beyond it.
  std::vector<double> calc_p50_ms;
  std::vector<double> calc_p95_ms;
  uint64_t calc_samples = 0;
  uint64_t procedures = 0;  // summed over passes
  uint64_t proc_failures = 0;
  uint64_t warm_hits = 0;
  uint64_t warm_lookups = 0;

  void Add(const QueryStats& q) {
    if (q.fill_s > 0) fill_s.push_back(q.fill_s);
    cold_s.push_back(q.cold_s);
    warm_s.push_back(q.warm_s);
    if (!q.calc_ms.empty()) {
      calc_p50_ms.push_back(Percentile(q.calc_ms, 0.50));
      calc_p95_ms.push_back(Percentile(q.calc_ms, 0.95));
    }
    calc_samples += q.calc_ms.size();
    procedures += q.procedures;
    proc_failures += q.proc_failures;
    warm_hits += q.warm_hits;
    warm_lookups += q.warm_hits + q.warm_misses;
  }
};

// A host-time metric: the mean of the fastest tenth of the run's
// repetitions (at least one). On a shared host the program's speed moves
// between full and roughly half speed, from second to second and in
// episodes of minutes, as other work on the same machine comes and goes. A
// median or whole-run aggregate follows the mix of fast and slow moments,
// which differs from run to run; the fastest tenth measures the program
// when undisturbed. Every repetition's value is recorded with the result,
// to show the host's noise.
void PutFastest(RunOutcome* out, const std::string& name, std::vector<double> values,
                bool higher_is_better) {
  out->meta[name + "_reps"] = List(values);
  if (values.empty()) return;
  if (higher_is_better) {
    std::sort(values.rbegin(), values.rend());
  } else {
    std::sort(values.begin(), values.end());
  }
  size_t n = std::max<size_t>(1, values.size() / 10);
  double sum = 0;
  for (size_t i = 0; i < n; ++i) sum += values[i];
  out->metrics[name] = sum / static_cast<double>(n);
}

void PutTiming(RunOutcome* out, const std::string& name, const std::vector<double>& seconds) {
  PutFastest(out, name, seconds, false);
}

// A throughput metric, in millions per second, from each repetition's work
// and time.
void PutRate(RunOutcome* out, const std::string& name, const std::vector<double>& work,
             const std::vector<double>& seconds) {
  std::vector<double> rates;
  for (size_t i = 0; i < work.size(); ++i) rates.push_back(work[i] / seconds[i] / 1e6);
  PutFastest(out, name, rates, true);
}

void PutQueryMetrics(const QueryTotals& q, RunOutcome* out) {
  PutTiming(out, "analysis_cold_s", q.cold_s);
  PutTiming(out, "analysis_warm_s", q.warm_s);
  out->meta["analysis_fill_s_reps"] = List(q.fill_s);
  PutTiming(out, "calc_p50_ms", q.calc_p50_ms);
  PutTiming(out, "calc_p95_ms", q.calc_p95_ms);
  out->meta["calc_samples"] = U(q.calc_samples);
  out->meta["query_passes"] = U(q.cold_s.size());
}

// Per-layer metrics read off the ledger of the traced pass.
struct TraceTotals {
  uint64_t base_instructions = 0;  // over traced profiling-off runs
  uint64_t on_instructions = 0;    // over traced profiling-on runs
  double run_wall_s = 0;           // traced profiling-on runs
  CpuTime run_cpu;
  uint32_t rounds = 0;             // traced rounds
  std::vector<double> overhead_ms; // traced minus untraced wall, per pair
  DbWriteTally writes;
  QueryTotals query;
  std::map<std::string, double> counts;
};

void PutLayerMetrics(const Ledger& ledger, const TraceTotals& t, RunOutcome* out) {
  std::map<std::string, Ledger::NameTotals> names = ledger.TotalsByName();
  auto mean_ms = [&](const char* name) {
    const Ledger::NameTotals& n = names[name];
    return n.count == 0 ? 0.0 : n.total_ms / static_cast<double>(n.count);
  };
  auto self_ns_per_op = [&](const char* name) {
    const Ledger::NameTotals& n = names[name];
    return n.ops == 0 ? 0.0 : n.self_ms * 1e6 / static_cast<double>(n.ops);
  };
  auto per = [](double a, uint64_t b) { return b == 0 ? 0.0 : a / static_cast<double>(b); };
  auto& m = out->metrics;
  m["workloads.build_ms"] = mean_ms("workloads.build");
  m["kernel.instantiate_ms"] = mean_ms("kernel.instantiate");
  double base_ns = per(names["cpu.base_run"].self_ms * 1e6, t.base_instructions);
  m["cpu.base_ns_per_instr"] = base_ns;
  m["perfctr.overhead_ns_per_instr"] =
      per(names["kernel.run"].self_ms * 1e6, t.on_instructions) - base_ns;
  m["driver.deliver_ns_per_sample"] = self_ns_per_op("driver.deliver");
  m["daemon.ingest_ns_per_record"] = self_ns_per_op("daemon.ingest");
  m["profiledb.flush_ms"] = mean_ms("profiledb.flush");
  m["profiledb.roll_ms"] = mean_ms("profiledb.roll");
  m["profiledb.seal_ms"] = mean_ms("profiledb.seal");
  m["profiledb.bytes_per_flush"] = per(static_cast<double>(t.writes.bytes), t.writes.flushes);
  m["profiledb.atomic_writes_per_flush"] =
      per(static_cast<double>(t.writes.writes), t.writes.flushes);
  m["profiledb.read_ms"] = mean_ms("profiledb.read");
  m["sim.cpu_util"] = t.run_wall_s == 0 ? 0 : t.run_cpu.total() / t.run_wall_s;
  m["sim.sys_s"] = t.rounds == 0 ? 0 : t.run_cpu.sys / t.rounds;
  m["analysis.cold_ms_per_proc"] = per(names["analysis.cold"].total_ms, t.query.procedures);
  m["analysis.warm_ms_per_proc"] = per(names["analysis.warm"].total_ms, t.query.procedures);
  m["analysis.fill_ms_per_proc"] =
      t.query.cold_s.empty()
          ? 0
          : per(names["analysis.fill"].total_ms * static_cast<double>(t.query.cold_s.size()),
                t.query.procedures * t.query.fill_s.size());
  m["analysis.cache_hit_rate"] = per(static_cast<double>(t.query.warm_hits), t.query.warm_lookups);
  m["analysis.procedures"] = per(static_cast<double>(t.query.procedures), t.query.cold_s.size());
  m["analysis.proc_failures"] =
      per(static_cast<double>(t.query.proc_failures), t.query.cold_s.size());
  m["tools.prof_ms"] = mean_ms("tools.prof");
  m["calc.samples"] = static_cast<double>(t.query.calc_samples);
  m["trace.overhead_ms"] = Median(t.overhead_ms);
  std::map<std::string, double> layers = ledger.SelfMsByLayer();
  for (const char* layer :
       {"workloads", "kernel", "cpu", "driver", "daemon", "profiledb", "analysis", "tools"}) {
    m[std::string("self.") + layer + "_ms"] =
        t.rounds == 0 ? 0 : layers[layer] / static_cast<double>(t.rounds);
  }
  for (const auto& [name, value] : t.counts) m[name] = value;
}

// ---------------------------------------------------------------------------
// Workload drivers

struct Budget {
  Clock::time_point start = Clock::now();
  double seconds;
  explicit Budget(double s) : seconds(s) {}
  bool Before(double fraction) const { return SecondsSince(start) < fraction * seconds; }
};

void RunCollection(const CollectSpec& spec, const RunOptions& opt, RunOutcome* out) {
  const std::string db_root = opt.workdir + "/db";
  const size_t min_rounds = opt.tiny ? 2 : 3;
  out->meta["scale"] = D(spec.scale);
  out->meta["sim_cpus"] = U(spec.cpus);
  out->meta["analysis_jobs"] = U(kAnalysisJobs);
  out->meta["split_cycles"] = U(spec.split_cycles);
  out->meta["collection_path"] = spec.cpus > 1 ? "threaded" : "sequential";

  ImageSet images;
  Budget budget(opt.seconds);
  std::vector<double> setup_s;
  std::vector<CollectResult> rounds;
  if (!opt.trace) {
    // Query passes are interleaved with the collections, an eighth of the
    // time each, so both kinds of metric sample the whole run. They read
    // the first collection's database; every later collection goes to a
    // scratch database that must come out byte-identical to it.
    const std::string scratch_root = opt.workdir + "/collect";
    QueryTotals query;
    double collect_s = 0;
    double query_s = 0;
    while (rounds.size() < min_rounds || budget.Before(1.0)) {
      ReleaseFreedHeap();
      const bool first = rounds.empty();
      Instance inst = SetUp(spec, ProfilingMode::kDefault, opt.seed,
                            first ? db_root : scratch_root, nullptr, out);
      setup_s.push_back(inst.setup_s);
      rounds.push_back(Collect(&inst, spec, nullptr, nullptr, out));
      collect_s += rounds.back().wall_s;
      if (first) images = ImagesOf(inst.workload, inst.system->kernel());
      if (!first) {
        CheckSameFingerprint(out, rounds[0].fingerprint, rounds.back().fingerprint,
                             "round " + U(rounds.size() - 1) + " vs round 0");
      }
      do {
        Clock::time_point t0 = Clock::now();
        query.Add(RunQuery(db_root, images, query.cold_s.empty(), nullptr, out));
        query_s += SecondsSince(t0);
      } while (query_s < collect_s / 7);
    }
    std::vector<double> instructions, samples, wall_s, cpu_s;
    for (const CollectResult& r : rounds) {
      instructions.push_back(static_cast<double>(r.instructions));
      samples.push_back(static_cast<double>(r.samples));
      wall_s.push_back(r.wall_s);
      cpu_s.push_back(r.cpu.total());
    }
    const CollectResult& first = rounds.front();
    PutTiming(out, "setup_s", setup_s);
    PutRate(out, "sim_mips", instructions, wall_s);
    PutRate(out, "ingest_msamples_s", samples, wall_s);
    PutQueryMetrics(query, out);
    PutTiming(out, "host_cpu_s", cpu_s);
    out->metrics["peak_rss_mb"] = PeakRssMb();
    out->metrics["modelled_overhead_pct"] = first.overhead_pct;
    out->metrics["sim_cycles"] = static_cast<double>(first.elapsed);
    out->metrics["db_bytes"] = static_cast<double>(first.db_bytes);
    out->meta["rounds"] = U(rounds.size());
    out->meta["samples_per_round"] = U(first.samples);
    out->meta["instructions_per_round"] = U(first.instructions);
    return;
  }

  // Traced run: per iteration a traced profiling-off run, an untraced and
  // a traced profiling-on run; then traced query passes.
  Ledger ledger;
  dcpi::FaultInjectingEnv write_counter;  // never armed: counts writes only
  dcpi::FaultInjectingEnv* previous_env = dcpi::SetFaultInjectingEnv(&write_counter);
  TraceTotals totals;
  std::vector<CollectResult> base_rounds;
  while (totals.rounds < (opt.tiny ? 1u : 2u) || budget.Before(0.75)) {
    Instance base = SetUp(spec, ProfilingMode::kBase, opt.seed, "", &ledger, out);
    base_rounds.push_back(Collect(&base, spec, &ledger, nullptr, out));
    totals.base_instructions += base_rounds.back().instructions;
    if (base_rounds.size() > 1) {
      CheckSameFingerprint(out, base_rounds[0].fingerprint, base_rounds.back().fingerprint,
                           "profiling-off round");
    }

    Instance plain = SetUp(spec, ProfilingMode::kDefault, opt.seed, db_root, nullptr, out);
    rounds.push_back(Collect(&plain, spec, nullptr, nullptr, out));
    if (images.empty()) images = ImagesOf(plain.workload, plain.system->kernel());
    Instance traced = SetUp(spec, ProfilingMode::kDefault, opt.seed, db_root, &ledger, out);
    CollectResult r = Collect(&traced, spec, &ledger, &totals.writes, out);
    CheckSameFingerprint(out, rounds.front().fingerprint, rounds.back().fingerprint,
                         "untraced round");
    CheckSameFingerprint(out, rounds.front().fingerprint, r.fingerprint,
                         "traced round vs untraced round (database digest included)");
    totals.overhead_ms.push_back((r.wall_s - rounds.back().wall_s) * 1e3);
    totals.on_instructions += r.instructions;
    totals.run_wall_s += r.wall_s;
    totals.run_cpu.user += r.cpu.user;
    totals.run_cpu.sys += r.cpu.sys;
    ++totals.rounds;
    totals.counts = r.counts;
  }
  // The database on disk is the last traced round's.
  while (totals.query.cold_s.size() < (opt.tiny ? 1u : 2u) || budget.Before(1.0)) {
    Scope root(&ledger, "bench.query");
    ledger.set_root(root.id());
    totals.query.Add(RunQuery(db_root, images, totals.query.cold_s.empty(), &ledger, out));
  }
  dcpi::SetFaultInjectingEnv(previous_env);
  PutLayerMetrics(ledger, totals, out);
  if (!opt.trace_path.empty()) ledger.WriteJson(opt.trace_path);
  out->meta["traced_rounds"] = U(totals.rounds);
}

// ---- ingest_query ----

struct Capture : ExactResults {
  std::vector<SampleKey> trace;
  std::vector<dcpi::LoaderEvent> events;
  std::vector<double> mean_periods;
  ImageSet images;
  uint64_t elapsed = 0;
  uint64_t instructions = 0;
  double run_s = 0;
  double setup_s = 0;
};

struct IngestSpec {
  double scale = 0.25;
  double period_scale = 1.0 / 256;
  uint32_t epochs = 4;
  // Replays of the stream per epoch: enough that the driver and daemon
  // (delivery) and the profile database (flush, roll, seal) each take
  // between a quarter and three quarters of the ingest time.
  uint32_t replays = 16;
};

// Records gcc's sample stream (keys only: handler costs are zeroed so the
// recording run is timed like a profiling-off one) and the loader events
// of a profiling-off System given the same workload.
Capture CaptureStream(const IngestSpec& spec, uint64_t seed, Ledger* ledger,
                      TraceTotals* totals, RunOutcome* out) {
  Capture c;
  Clock::time_point t0 = Clock::now();
  Workload workload;
  {
    Scope span(ledger, "workloads.build");
    WorkloadFactory factory(spec.scale);  // same programs for every seed
    workload = factory.GccLike();
  }
  SystemConfig base_config;
  base_config.mode = ProfilingMode::kBase;
  SystemConfig config;
  config.mode = ProfilingMode::kDefault;
  config.period_scale = spec.period_scale;
  config.free_profiling = true;
  config.rng_seed = static_cast<uint32_t>(seed);
  config.driver.record_trace = true;
  config.driver.max_trace_samples = ~0ull;
  std::unique_ptr<System> base;
  std::unique_ptr<System> system;
  {
    Scope span(ledger, "kernel.instantiate");
    base = std::make_unique<System>(base_config);
    Status status = workload.Instantiate(base.get());
    Check(out, status.ok(), "instantiate base gcc: " + status.ToString());
    c.events = base->kernel().DrainLoaderEvents();
    system = std::make_unique<System>(config);
    status = workload.Instantiate(system.get());
    Check(out, status.ok(), "instantiate gcc: " + status.ToString());
  }
  // The recording run's deliveries are kept apart from the replay's, which
  // driver.deliver_ns_per_sample measures on this workload.
  Probes probes;
  if (ledger != nullptr) probes.Install(system.get(), config, ledger, "driver.capture_deliver");
  CpuTime cpu0 = ProcessCpuTime();
  Clock::time_point run0 = Clock::now();
  if (ledger == nullptr) {
    Check(out, !system->Run().had_error, "trace capture run failed");
  } else {
    Scope root(ledger, "bench.capture");
    ledger->set_root(root.id());
    Check(out, TracedRun(system.get(), config, ~0ull, ledger, probes.sink.get(), nullptr).ok(),
          "trace capture run failed");
  }
  c.run_s = SecondsSince(run0);
  CpuTime cpu1 = ProcessCpuTime();
  c.trace = system->driver()->Trace();
  c.setup_s = SecondsSince(t0);

  Kernel& kernel = system->kernel();
  Check(out, !kernel.HadProcessError(), "gcc faulted during trace capture");
  c.elapsed = kernel.ElapsedCycles();
  c.instructions = RecordCpuCounts(kernel, &c);
  c.fingerprint["trace_samples"] = U(c.trace.size());
  for (int e = 0; e < dcpi::kNumEventTypes; ++e) {
    c.mean_periods.push_back(system->counters(0)->MeanPeriod(static_cast<EventType>(e)));
  }
  std::set<const ExecutableImage*> seen;
  for (const dcpi::LoaderEvent& event : c.events) {
    if (event.image != nullptr && seen.insert(event.image.get()).second) {
      c.images.push_back(event.image);
    }
  }

  if (ledger != nullptr) {
    // Profiling-off timing of the same program, for the per-instruction
    // simulator and counter costs.
    {
      Scope root(ledger, "bench.base");
      ledger->set_root(root.id());
      TracedRun(base.get(), base_config, ~0ull, ledger, nullptr, nullptr);
    }
    Check(out, base->kernel().cpu(0).stats().instructions == c.instructions,
          "profiling-off gcc ran a different instruction count");
    totals->base_instructions += c.instructions;
    totals->on_instructions += c.instructions;
    totals->run_wall_s += c.run_s;
    totals->run_cpu.user += cpu1.user - cpu0.user;
    totals->run_cpu.sys += cpu1.sys - cpu0.sys;
  }
  return c;
}

struct IngestResult : ExactResults {
  double wall_s = 0;
  uint64_t samples = 0;
  uint64_t db_bytes = 0;
  double overhead_pct = 0;
};

IngestResult Ingest(const Capture& c, const IngestSpec& spec, const std::string& root,
                    Ledger* ledger, DbWriteTally* tally, RunOutcome* out) {
  std::error_code ec;
  fs::remove_all(root, ec);
  DcpiDriver driver(1, dcpi::DriverConfig{});
  ProfileDatabase db(root);
  Daemon daemon(&driver, &db, c.mean_periods, dcpi::DaemonConfig{});
  std::atomic<uint64_t> buffers{0};
  if (ledger != nullptr) WrapOverflowHandler(&driver, &daemon, ledger, &buffers);
  daemon.ProcessLoaderEvents(c.events);

  IngestResult r;
  Status failed = Status::Ok();
  auto note = [&failed](const Status& s) {
    if (failed.ok() && !s.ok()) failed = s;
  };
  Clock::time_point t0 = Clock::now();
  {
    Scope root_span(ledger, "bench.ingest");
    if (ledger != nullptr) ledger->set_root(root_span.id());
    for (uint32_t epoch = 0; epoch < spec.epochs; ++epoch) {
      for (uint32_t replay = 0; replay < spec.replays; ++replay) {
        Scope span(ledger, "driver.deliver");
        span.set_ops(c.trace.size());
        for (const SampleKey& key : c.trace) driver.DeliverSample(0, key.pid, key.pc, key.event);
      }
      {
        Scope span(ledger, "driver.flush_all");
        driver.FlushAll();
      }
      note(TallyFlush(ledger, tally, &db, [&daemon] { return daemon.FlushToDatabase(); }));
      uint64_t at = (epoch + 1) * c.elapsed;
      if (epoch + 1 < spec.epochs) {
        Scope span(ledger, "profiledb.roll");
        note(daemon.RollEpoch(at));
      } else {
        Scope span(ledger, "profiledb.seal");
        note(daemon.SealCurrentEpoch(at));
      }
    }
  }
  r.wall_s = SecondsSince(t0);
  Check(out, failed.ok(), "replay database write failed: " + failed.ToString());

  r.samples = static_cast<uint64_t>(spec.epochs) * spec.replays * c.trace.size();
  uint64_t ingested = RecordPipelineCounts(driver, daemon, buffers.load(), &r);
  uint64_t delivered = driver.TotalStats().interrupts;
  uint64_t unknown = daemon.stats().samples_unknown;
  Check(out, ingested == r.samples && delivered == r.samples,
        "replay: delivered " + U(r.samples) + ", driver counted " + U(delivered) +
            ", daemon attributed+unknown " + U(ingested));
  Check(out, unknown == 0, "replay: " + U(unknown) + " samples attributed to no image");
  Check(out, db.ListSealedEpochs().size() == spec.epochs,
        "replay: " + U(db.ListSealedEpochs().size()) + " sealed epochs, want " + U(spec.epochs));
  r.overhead_pct = 100.0 *
                   static_cast<double>(driver.TotalStats().handler_cycles +
                                       daemon.stats().daemon_cycles) /
                   (static_cast<double>(c.elapsed) * spec.epochs * spec.replays);
  r.db_bytes = db.DiskUsageBytes();
  r.fingerprint["db_bytes"] = U(r.db_bytes);
  r.fingerprint["db_digest"] = DbDigest(root);
  r.fingerprint["overhead_pct"] = D(r.overhead_pct);
  return r;
}

void RunIngestQuery(const RunOptions& opt, RunOutcome* out) {
  IngestSpec spec;
  if (opt.tiny) {
    spec.scale = 0.05;
    spec.epochs = 2;
    spec.replays = 1;
  }
  // The first replay's database is the one the query passes read (its
  // cache is filled once); later replays go to a scratch database that must
  // come out byte-identical to it.
  const std::string db_root = opt.workdir + "/db";
  const std::string replay_root = opt.workdir + "/replay";
  out->meta["scale"] = D(spec.scale);
  out->meta["sim_cpus"] = "1";
  out->meta["analysis_jobs"] = U(kAnalysisJobs);
  out->meta["period_scale"] = D(spec.period_scale);
  out->meta["epochs"] = U(spec.epochs);
  out->meta["replays_per_epoch"] = U(spec.replays);

  Ledger ledger;
  Ledger* traced = opt.trace ? &ledger : nullptr;
  TraceTotals totals;
  dcpi::FaultInjectingEnv write_counter;  // never armed: counts writes only
  dcpi::FaultInjectingEnv* previous_env =
      opt.trace ? dcpi::SetFaultInjectingEnv(&write_counter) : nullptr;

  // Every round sets up afresh (trace capture included), replays the
  // stream into a database and queries the query database.
  Budget budget(opt.seconds);
  const size_t min_rounds = opt.tiny ? 2 : 3;
  Capture reference;  // the first round's capture, stream dropped
  std::vector<IngestResult> rounds;
  std::vector<double> setup_s, instructions, capture_s, samples, ingest_s, cpu_s;
  while (rounds.size() < min_rounds || budget.Before(1.0)) {
    ReleaseFreedHeap();
    const bool first = rounds.empty();
    Capture capture = CaptureStream(spec, opt.seed, traced, &totals, out);
    setup_s.push_back(capture.setup_s);
    instructions.push_back(static_cast<double>(capture.instructions));
    capture_s.push_back(capture.run_s);
    if (!first) {
      CheckSameFingerprint(out, reference.fingerprint, capture.fingerprint,
                           "trace capture " + U(rounds.size()));
    }
    CpuTime cpu0 = ProcessCpuTime();
    rounds.push_back(Ingest(capture, spec, first ? db_root : replay_root, nullptr, nullptr, out));
    CpuTime cpu1 = ProcessCpuTime();
    cpu_s.push_back(cpu1.total() - cpu0.total());
    samples.push_back(static_cast<double>(rounds.back().samples));
    ingest_s.push_back(rounds.back().wall_s);
    if (!first) {
      CheckSameFingerprint(out, rounds.front().fingerprint, rounds.back().fingerprint,
                           "replay round " + U(rounds.size() - 1));
    }
    if (opt.trace) {
      IngestResult r = Ingest(capture, spec, replay_root, &ledger, &totals.writes, out);
      CheckSameFingerprint(out, rounds.front().fingerprint, r.fingerprint,
                           "traced replay vs untraced replay (database digest included)");
      totals.overhead_ms.push_back((r.wall_s - rounds.back().wall_s) * 1e3);
      totals.counts = r.counts;
      ++totals.rounds;
    }
    {
      Scope query_root(traced, "bench.query");
      if (traced != nullptr) ledger.set_root(query_root.id());
      totals.query.Add(RunQuery(db_root, capture.images, first, traced, out));
    }
    if (first) {
      reference = std::move(capture);
      reference.trace = {};
    }
  }
  out->meta["trace_samples"] = reference.fingerprint["trace_samples"];
  out->meta["rounds"] = U(rounds.size());
  out->meta["samples_per_round"] = U(rounds.front().samples);

  if (opt.trace) {
    dcpi::SetFaultInjectingEnv(previous_env);
    for (const auto& [name, value] : reference.counts) totals.counts[name] = value;
    PutLayerMetrics(ledger, totals, out);
    if (!opt.trace_path.empty()) ledger.WriteJson(opt.trace_path);
    return;
  }
  PutTiming(out, "setup_s", setup_s);
  PutRate(out, "sim_mips", instructions, capture_s);
  PutRate(out, "ingest_msamples_s", samples, ingest_s);
  PutQueryMetrics(totals.query, out);
  PutTiming(out, "host_cpu_s", cpu_s);
  out->metrics["peak_rss_mb"] = PeakRssMb();
  out->metrics["modelled_overhead_pct"] = rounds.front().overhead_pct;
  out->metrics["sim_cycles"] = static_cast<double>(reference.elapsed);
  out->metrics["db_bytes"] = static_cast<double>(rounds.front().db_bytes);
}

CollectSpec GccBatchSpec(bool tiny) {
  CollectSpec spec;
  spec.cpus = 1;
  spec.scale = tiny ? 0.05 : 0.5;
  spec.split_cycles = tiny ? 800'000 : 6'000'000;
  spec.make = [](WorkloadFactory& factory) { return factory.GccLike(); };
  return spec;
}

CollectSpec TimesharingSpec(bool tiny) {
  CollectSpec spec;
  spec.cpus = 2;
  spec.scale = tiny ? 0.02 : 0.0625;
  spec.split_cycles = tiny ? 300'000 : 3'000'000;
  spec.make = [](WorkloadFactory& factory) { return factory.Timesharing(2); };
  return spec;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"gcc_batch", "timesharing_mp", "ingest_query"};
  return names;
}

RunOutcome RunWorkload(const RunOptions& options) {
  RunOutcome out;
  std::error_code ec;
  fs::create_directories(options.workdir, ec);
  if (options.workload == "gcc_batch") {
    RunCollection(GccBatchSpec(options.tiny), options, &out);
  } else if (options.workload == "timesharing_mp") {
    RunCollection(TimesharingSpec(options.tiny), options, &out);
  } else if (options.workload == "ingest_query") {
    RunIngestQuery(options, &out);
  } else {
    Check(&out, false, "unknown workload " + options.workload);
  }
  out.metrics["failed_frac"] =
      out.attempted == 0 ? 0 : static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  return out;
}

}  // namespace hostbench
