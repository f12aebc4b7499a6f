// Shared test helpers: a per-test scratch directory, and seeded generators
// for property tests: random connected multigraphs (cycle-equivalence
// inputs) and random procedure sources (assembled into images for CFG /
// frequency / verification tests).
//
// Generators take the trial index and total trial count so sizes ramp from
// minimal upward: when a property fails, the first failing trial is close
// to a shrunk counterexample, and re-running with the same seed reproduces
// it exactly.

#ifndef TESTS_TESTGEN_H_
#define TESTS_TESTGEN_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "src/driver/hash_table.h"
#include "src/support/rng.h"

namespace dcpi {
namespace testgen {

// A fresh, empty scratch directory for the running test:
// <tmp>/dcpi_<pid>_<suite>.<test>. ctest -j runs every case as its own
// process, so the pid and the test name keep concurrent cases (and reruns
// of the same case) from deleting each other's files.
inline std::string UniqueTempRoot() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string root = (std::filesystem::temp_directory_path() /
                      ("dcpi_" + std::to_string(::getpid()) + "_" +
                       info->test_suite_name() + "." + info->name()))
                         .string();
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  return root;
}

// Linear ramp from lo to hi across the trial sequence.
inline int Ramp(int trial, int total_trials, int lo, int hi) {
  if (total_trials <= 1) return hi;
  return lo + static_cast<int>((static_cast<long long>(hi - lo) * trial) /
                               (total_trials - 1));
}

struct RandomGraph {
  int num_nodes = 0;
  std::vector<std::pair<int, int>> edges;
};

// Random connected undirected multigraph: a random spanning tree plus a
// random number of extra edges (which may be parallel edges or self-loops —
// both exercise corner cases of the bracket-list algorithm).
inline RandomGraph RandomMultigraph(SplitMix64& rng, int trial, int total_trials) {
  RandomGraph graph;
  graph.num_nodes = 2 + static_cast<int>(rng.NextBelow(
                            static_cast<uint64_t>(Ramp(trial, total_trials, 1, 7))));
  for (int v = 1; v < graph.num_nodes; ++v) {
    graph.edges.push_back({static_cast<int>(rng.NextBelow(v)), v});
  }
  int extra = static_cast<int>(
      rng.NextBelow(static_cast<uint64_t>(Ramp(trial, total_trials, 2, 7))));
  for (int e = 0; e < extra; ++e) {
    int u = static_cast<int>(rng.NextBelow(graph.num_nodes));
    int v = static_cast<int>(rng.NextBelow(graph.num_nodes));
    graph.edges.push_back({u, v});
  }
  return graph;
}

// Random procedure source for the assembler. The shape guarantees:
//   * it assembles (only known mnemonics, defined labels);
//   * it lints clean of errors (all read registers are written, the last
//     instruction terminates flow);
//   * every block reaches the exit, so the node-split equivalence graph is
//     connected: conditional branches may target any block (the fallthrough
//     still advances), unconditional branches only jump strictly forward.
inline std::string RandomProcedureSource(SplitMix64& rng, int num_blocks,
                                         const std::string& proc_name) {
  std::string src = "        .text\n        .proc " + proc_name + "\n";
  for (int b = 0; b < num_blocks; ++b) {
    src += "b" + std::to_string(b) + ":\n";
    if (b == 0) {
      // Initialize the registers every generated instruction reads.
      src += "        li    r1, 3\n";
      src += "        li    r2, 5\n";
    }
    int body = 1 + static_cast<int>(rng.NextBelow(3));
    for (int i = 0; i < body; ++i) {
      const char* dest = "r3";
      switch (rng.NextBelow(4)) {
        case 0: dest = "r4"; break;
        case 1: dest = "r5"; break;
        case 2: dest = "r6"; break;
        default: break;
      }
      switch (rng.NextBelow(4)) {
        case 0:
          src += std::string("        addq  r1, r2, ") + dest + "\n";
          break;
        case 1:
          src += std::string("        subq  r1, 1, ") + dest + "\n";
          break;
        case 2:
          src += std::string("        and   r1, r2, ") + dest + "\n";
          break;
        default:
          src += std::string("        sll   r1, 2, ") + dest + "\n";
          break;
      }
    }
    if (b == num_blocks - 1) {
      src += rng.NextBelow(2) == 0 ? "        halt\n"
                                   : "        ret   r31, (r26)\n";
    } else {
      switch (rng.NextBelow(5)) {
        case 0:
        case 1: {  // conditional branch anywhere (back edges allowed)
          int target = static_cast<int>(rng.NextBelow(num_blocks));
          src += "        bne   r1, b" + std::to_string(target) + "\n";
          break;
        }
        case 2: {  // unconditional branch strictly forward
          int target =
              b + 1 + static_cast<int>(rng.NextBelow(num_blocks - 1 - b));
          src += "        br    r31, b" + std::to_string(target) + "\n";
          break;
        }
        default:  // plain fallthrough
          break;
      }
    }
  }
  src += "        .endp\n";
  return src;
}

// Sample-key stream with a hot-set skew for the driver hash-table
// differential tests: most lookups concentrate on a few keys (as in real
// profiles, where a handful of hot PCs dominate), the rest spread over a
// ramped universe, so swap-to-front's front-of-line fast path and cold
// misses are both exercised.
inline std::vector<SampleKey> RandomSampleStream(SplitMix64& rng, int trial,
                                                 int total_trials) {
  int universe = 1 + Ramp(trial, total_trials, 1, 400);
  int length = Ramp(trial, total_trials, 4, 5000);
  std::vector<SampleKey> keys;
  keys.reserve(universe);
  for (int i = 0; i < universe; ++i) {
    SampleKey key;
    key.pid = 1 + static_cast<uint32_t>(rng.NextBelow(64));
    key.pc = rng.NextBelow(1 << 20) << 2;
    key.event = static_cast<EventType>(rng.NextBelow(kNumEventTypes));
    keys.push_back(key);
  }
  int hot = std::min<int>(universe, 8);
  std::vector<SampleKey> stream;
  stream.reserve(length);
  for (int i = 0; i < length; ++i) {
    uint64_t index = rng.NextBelow(10) < 7
                         ? rng.NextBelow(static_cast<uint64_t>(hot))
                         : rng.NextBelow(static_cast<uint64_t>(universe));
    stream.push_back(keys[index]);
  }
  return stream;
}

// Adversarial colliding stream: many PIDs hammering a handful of shared
// PCs (the paper's gcc effect — a fresh PID per compilation keeps the same
// hot PCs alive under many keys) interleaved with many PCs under one PID,
// so lines thrash no matter how the hash spreads buckets. Combine with
// tiny bucket counts for maximum eviction pressure.
inline std::vector<SampleKey> CollidingSampleStream(SplitMix64& rng, int trial,
                                                    int total_trials) {
  int length = Ramp(trial, total_trials, 8, 6000);
  uint32_t pids = 2 + static_cast<uint32_t>(Ramp(trial, total_trials, 2, 64));
  static constexpr uint64_t kSharedPcs[4] = {0x1000, 0x1004, 0x1008, 0x100c};
  std::vector<SampleKey> stream;
  stream.reserve(length);
  for (int i = 0; i < length; ++i) {
    SampleKey key;
    if (rng.NextBelow(2) == 0) {
      key.pid = 1 + static_cast<uint32_t>(rng.NextBelow(pids));
      key.pc = kSharedPcs[rng.NextBelow(4)];
    } else {
      key.pid = 1;
      key.pc = 0x2000 + rng.NextBelow(pids) * 4;
    }
    key.event = rng.NextBelow(4) == 0 ? EventType::kImiss : EventType::kCycles;
    stream.push_back(key);
  }
  return stream;
}

}  // namespace testgen
}  // namespace dcpi

#endif  // TESTS_TESTGEN_H_
