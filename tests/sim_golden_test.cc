// Simulator identity pins: exact figures for a few whole-system runs.
//
// Every number the reproduction reports (Tables 3-5, the accuracy figures,
// the profile databases) is a function of what the simulator does, cycle by
// cycle. These cases pin that behaviour: elapsed cycles, every CPU's
// counters, a digest of every instruction's ground truth and every taken
// edge, and a digest of the daemon's merged profiles. A change that only
// makes the simulator faster must leave every figure here unchanged; a
// change that is meant to alter simulated behaviour must say so and update
// the figures (the failure message prints the new table).

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "src/workloads/workloads.h"

namespace dcpi {
namespace {

// FNV-1a over 64-bit words.
class Digest {
 public:
  void Add(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }
  void Add(const std::string& s) {
    Add(s.size());
    for (char c : s) Add(static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct Figure {
  std::string name;
  uint64_t value;
};

// Every figure the simulator and the collection path produce for one run.
std::vector<Figure> Fingerprint(System& system, const SystemResult& result) {
  std::vector<Figure> figures;
  figures.push_back({"elapsed_cycles", result.elapsed_cycles});
  Kernel& kernel = system.kernel();
  for (uint32_t c = 0; c < kernel.num_cpus(); ++c) {
    const CpuStats& s = kernel.cpu(c).stats();
    std::string p = "cpu" + std::to_string(c) + ".";
    figures.push_back({p + "instructions", s.instructions});
    figures.push_back({p + "issue_groups", s.issue_groups});
    figures.push_back({p + "loads", s.loads});
    figures.push_back({p + "stores", s.stores});
    figures.push_back({p + "cond_branches", s.cond_branches});
    figures.push_back({p + "mispredicts", s.mispredicts});
    figures.push_back({p + "context_switches", s.context_switches});
    figures.push_back({p + "now", kernel.cpu(c).now()});
  }
  Digest truth;
  Digest edges;
  for (const ImageTruth& image : kernel.ground_truth().images()) {
    truth.Add(image.image->name());
    for (const InstructionTruth& t : image.instructions) {
      truth.Add(t.exec_count);
      truth.Add(t.head_cycles);
      for (uint64_t stall : t.stall_cycles) truth.Add(stall);
      truth.Add(t.imiss_events);
      truth.Add(t.dmiss_events);
      truth.Add(t.mispredict_events);
      truth.Add(t.dtbmiss_events);
    }
    edges.Add(image.image->name());
    for (const auto& [edge, count] : image.edges) {
      edges.Add(edge.first);
      edges.Add(edge.second);
      edges.Add(count);
    }
  }
  figures.push_back({"truth_digest", truth.value()});
  figures.push_back({"edge_digest", edges.value()});
  if (system.daemon() != nullptr) {
    Digest profiles;
    for (const ImageProfile* profile : system.daemon()->AllProfiles()) {
      profiles.Add(profile->image_name());
      profiles.Add(static_cast<uint64_t>(profile->event()));
      for (const auto& [offset, count] : profile->counts()) {
        profiles.Add(offset);
        profiles.Add(count);
      }
    }
    figures.push_back({"profile_digest", profiles.value()});
    figures.push_back({"interrupts", result.driver_total.interrupts});
    figures.push_back({"records_processed", result.daemon.records_processed});
    figures.push_back({"samples_attributed", result.daemon.samples_attributed});
    figures.push_back({"samples_unknown", result.daemon.samples_unknown});
    figures.push_back({"wide_records", result.daemon.wide_records});
    figures.push_back({"daemon_cycles", result.daemon.daemon_cycles});
  }
  return figures;
}

std::vector<Figure> RunAndFingerprint(const Workload& workload, const SystemConfig& config) {
  System system(config);
  EXPECT_TRUE(workload.Instantiate(&system).ok()) << workload.name;
  SystemResult result = system.Run();
  EXPECT_FALSE(result.had_error) << workload.name;
  return Fingerprint(system, result);
}

// Compares figure by figure; on any mismatch prints the whole actual table
// in the form the expected tables below are written in.
void ExpectFigures(const std::vector<Figure>& actual, const std::vector<Figure>& expected) {
  bool same = actual.size() == expected.size();
  for (size_t i = 0; same && i < actual.size(); ++i) {
    same = actual[i].name == expected[i].name && actual[i].value == expected[i].value;
  }
  if (same) return;
  std::string table;
  for (const Figure& f : actual) {
    char line[128];
    std::snprintf(line, sizeof(line), "      {\"%s\", %" PRIu64 "ull},\n", f.name.c_str(),
                  f.value);
    table += line;
  }
  ADD_FAILURE() << "simulated figures changed; actual:\n" << table;
  for (size_t i = 0; i < std::min(actual.size(), expected.size()); ++i) {
    EXPECT_EQ(actual[i].name, expected[i].name);
    EXPECT_EQ(actual[i].value, expected[i].value) << actual[i].name;
  }
}

SystemConfig ProfiledConfig(ProfilingMode mode, uint32_t num_cpus) {
  SystemConfig config;
  config.kernel.num_cpus = num_cpus;
  config.mode = mode;
  config.period_scale = 1.0 / 16;  // as dcpi_sim
  return config;
}

TEST(SimGolden, GccBaseMode) {
  WorkloadFactory factory(/*scale=*/0.05);
  ExpectFigures(RunAndFingerprint(factory.GccLike(), ProfiledConfig(ProfilingMode::kBase, 1)),
                {
                    {"elapsed_cycles", 15755895ull},
                    {"cpu0.instructions", 5330661ull},
                    {"cpu0.issue_groups", 4607550ull},
                    {"cpu0.loads", 453852ull},
                    {"cpu0.stores", 299071ull},
                    {"cpu0.cond_branches", 913512ull},
                    {"cpu0.mispredicts", 102127ull},
                    {"cpu0.context_switches", 638ull},
                    {"cpu0.now", 15755895ull},
                    {"truth_digest", 12581851758145342622ull},
                    {"edge_digest", 6938729648782845586ull},
                });
}

TEST(SimGolden, GccDefaultMode) {
  WorkloadFactory factory(/*scale=*/0.05);
  ExpectFigures(
      RunAndFingerprint(factory.GccLike(), ProfiledConfig(ProfilingMode::kDefault, 1)),
      {
          {"elapsed_cycles", 18074656ull},
          {"cpu0.instructions", 5339769ull},
          {"cpu0.issue_groups", 4614902ull},
          {"cpu0.loads", 455436ull},
          {"cpu0.stores", 299643ull},
          {"cpu0.cond_branches", 915096ull},
          {"cpu0.mispredicts", 102218ull},
          {"cpu0.context_switches", 726ull},
          {"cpu0.now", 18074656ull},
          {"truth_digest", 14922718566529287547ull},
          {"edge_digest", 8884538285472481572ull},
          {"profile_digest", 17922558627585333913ull},
          {"interrupts", 4631ull},
          {"records_processed", 886ull},
          {"samples_attributed", 4631ull},
          {"samples_unknown", 0ull},
          {"wide_records", 0ull},
          {"daemon_cycles", 293920ull},
      });
}

TEST(SimGolden, TimesharingThreaded) {
  WorkloadFactory factory(/*scale=*/0.0625);
  SystemConfig config = ProfiledConfig(ProfilingMode::kDefault, 2);
  config.threaded_collection = true;
  ExpectFigures(RunAndFingerprint(factory.Timesharing(2), config),
                {
                    {"elapsed_cycles", 9020416ull},
                    {"cpu0.instructions", 2708586ull},
                    {"cpu0.issue_groups", 2014335ull},
                    {"cpu0.loads", 122251ull},
                    {"cpu0.stores", 338789ull},
                    {"cpu0.cond_branches", 437798ull},
                    {"cpu0.mispredicts", 17381ull},
                    {"cpu0.context_switches", 256ull},
                    {"cpu0.now", 6361770ull},
                    {"cpu1.instructions", 5092111ull},
                    {"cpu1.issue_groups", 4016573ull},
                    {"cpu1.loads", 265432ull},
                    {"cpu1.stores", 888280ull},
                    {"cpu1.cond_branches", 739892ull},
                    {"cpu1.mispredicts", 17753ull},
                    {"cpu1.context_switches", 360ull},
                    {"cpu1.now", 9020416ull},
                    {"truth_digest", 12596717727580379780ull},
                    {"edge_digest", 18123085315521936407ull},
                    {"profile_digest", 688835116360225692ull},
                    {"interrupts", 3907ull},
                    {"records_processed", 405ull},
                    {"samples_attributed", 3907ull},
                    {"samples_unknown", 0ull},
                    {"wide_records", 0ull},
                    {"daemon_cycles", 161400ull},
                });
}

TEST(SimGolden, GccMemorySampling) {
  WorkloadFactory factory(/*scale=*/0.05);
  SystemConfig config = ProfiledConfig(ProfilingMode::kDefault, 1);
  config.mem_fraction = 0.25;
  ExpectFigures(RunAndFingerprint(factory.GccLike(), config),
                {
                    {"elapsed_cycles", 18077964ull},
                    {"cpu0.instructions", 5339976ull},
                    {"cpu0.issue_groups", 4615069ull},
                    {"cpu0.loads", 455472ull},
                    {"cpu0.stores", 299656ull},
                    {"cpu0.cond_branches", 915132ull},
                    {"cpu0.mispredicts", 102224ull},
                    {"cpu0.context_switches", 728ull},
                    {"cpu0.now", 18077964ull},
                    {"truth_digest", 9973186068204610978ull},
                    {"edge_digest", 7499804167779334520ull},
                    {"profile_digest", 16533015867966812945ull},
                    {"interrupts", 4632ull},
                    {"records_processed", 1870ull},
                    {"samples_attributed", 4632ull},
                    {"samples_unknown", 0ull},
                    {"wide_records", 1147ull},
                    {"daemon_cycles", 815260ull},
                });
}

}  // namespace
}  // namespace dcpi
