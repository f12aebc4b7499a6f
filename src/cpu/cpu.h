// The in-order dual-issue CPU simulator.
//
// The simulator executes instructions in dynamic order and maintains a
// timing model in which — like the 21064/21164 the paper relies on —
// instructions stall only at the head of the issue queue. Every cycle
// between consecutive issue groups is attributed to the instruction that
// was waiting at the head (the group leader), which is exactly the quantity
// CYCLES sampling observes: the sampled PC six cycles after a counter
// overflow is the head-of-queue instruction (Section 4.1.2).
//
// The CPU reports head intervals and discrete events to a PerfMonitor (the
// performance-counter subsystem) and, optionally, exact per-instruction
// execution counts and stall attributions to a GroundTruth recorder (the
// dcpix role).
//
// Hot path: Step() runs once per simulated instruction, so it derives
// nothing that is static. It reads the instruction's issue facts (sources,
// destination, class, slots, grouping flags) from the PredecodedInst the
// context returns, result latencies from a per-class table built at
// construction, and translates the fetch PC only when the virtual fetch
// line changes (DESIGN.md, "Simulator hot path").

#ifndef SRC_CPU_CPU_H_
#define SRC_CPU_CPU_H_

#include <cstdint>

#include "src/cpu/branch_predictor.h"
#include "src/cpu/exec_context.h"
#include "src/cpu/ground_truth.h"
#include "src/cpu/perf_monitor.h"
#include "src/cpu/pipeline_model.h"
#include "src/memory/memory_system.h"

namespace dcpi {

struct CpuConfig {
  PipelineConfig pipeline;
  MemoryConfig memory;
  uint32_t predictor_entries = 2048;
  uint32_t ras_entries = 12;
  uint32_t issue_queue_depth = 8;  // bounds fetch run-ahead
  uint64_t pal_nop_cycles = 200;   // duration of a call_pal "nop" window
  bool flush_tlb_on_switch = true;
};

enum class ExitReason {
  kHalted,
  kYielded,
  kQuantumExpired,
  kInstructionLimit,
  kBadPc,      // fetch from outside mapped text
  kBadMemory,  // load or store outside every mapped range
};

const char* ExitReasonName(ExitReason reason);

struct RunResult {
  ExitReason reason;
  uint64_t cycles_used = 0;
  uint64_t instructions = 0;
  uint64_t fault_vaddr = 0;  // kBadMemory: the data address refused
};

struct CpuStats {
  uint64_t instructions = 0;
  uint64_t issue_groups = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t cond_branches = 0;
  uint64_t mispredicts = 0;
  uint64_t context_switches = 0;
};

class Cpu {
 public:
  Cpu(uint32_t cpu_id, const CpuConfig& config);

  // Both optional; may be set/cleared between runs.
  void set_monitor(PerfMonitor* monitor) { monitor_ = monitor; }
  void set_ground_truth(GroundTruth* ground_truth) { ground_truth_ = ground_truth; }

  // Runs `ctx` until it halts, yields, exceeds `max_cycles` of CPU time, or
  // executes `max_instructions`. Time continues from the previous run.
  RunResult Run(ExecContext& ctx, uint64_t max_cycles,
                uint64_t max_instructions = ~0ull);

  // Kernel notification before switching to a different context.
  void OnContextSwitch();

  // Current CPU time (cycle of the last issue event).
  uint64_t now() const { return last_issue_time_; }

  // Advances time without executing (used only by tests; the kernel runs a
  // real idle loop instead).
  void AdvanceIdle(uint64_t cycles) { last_issue_time_ += cycles; }

  uint32_t cpu_id() const { return cpu_id_; }
  MemorySystem& memory() { return memory_; }
  const MemorySystem& memory() const { return memory_; }
  const BranchPredictor& predictor() const { return predictor_; }
  const CpuStats& stats() const { return stats_; }
  const PipelineModel& model() const { return model_; }

 private:
  struct FetchInfo {
    uint64_t time = 0;
    bool icache_miss = false;
    bool itb_miss = false;
    StallCause cause = StallCause::kNone;
  };

  struct Constraint {
    uint64_t time = 0;
    StallCause cause = StallCause::kNone;

    void Raise(uint64_t t, StallCause c) {
      if (t > time) {
        time = t;
        cause = c;
      }
    }
  };

  FetchInfo ComputeFetchTime(ExecContext& ctx, uint64_t pc);
  void RedirectFetch(uint64_t resume_time, StallCause cause);
  // Forgets the current fetch line, so the next fetch starts a new one.
  void ResetFetchLine() {
    fetch_line_ = ~0ull;
    fetch_vline_ = ~0ull;
    fetch_count_ = 0;
  }
  bool DependsOnGroup(const PredecodedInst& p) const;

  // One dynamic instruction. Returns true to continue; on false, `exit_`
  // holds the reason.
  bool Step(ExecContext& ctx);

  uint32_t cpu_id_;
  CpuConfig config_;
  PipelineModel model_;
  MemorySystem memory_;
  BranchPredictor predictor_;
  PerfMonitor* monitor_ = nullptr;
  GroundTruth* ground_truth_ = nullptr;

  // PipelineModel::ResultLatency by instruction class.
  uint64_t result_latency_[kNumInstrClasses] = {};
  uint32_t icache_line_shift_ = 0;

  // Register scoreboard: ready time and the microarchitectural reason a
  // consumer would stall on it.
  uint64_t reg_ready_[2][32] = {};
  StallCause reg_cause_[2][32] = {};

  uint64_t imul_free_ = 0;
  uint64_t fdiv_free_ = 0;

  // Current issue group.
  uint64_t group_time_ = 0;
  uint8_t group_slots_ = 0;
  RegRef group_dests_[kNumIssueSlots] = {};
  int group_ndests_ = 0;
  int group_size_ = 0;
  bool group_closed_ = true;
  uint64_t last_issue_time_ = 0;

  // Pipeline resume floor (DTB traps, PAL windows) for the next issue.
  uint64_t floor_time_ = 0;
  StallCause floor_cause_ = StallCause::kNone;

  // Fetch stream. fetch_line_ is the physical I-cache line being fetched
  // from; fetch_vline_ the virtual line it was translated from (a fetch in
  // the same virtual line needs no translation).
  uint64_t fetch_time_ = 0;
  uint64_t fetch_line_ = ~0ull;
  uint64_t fetch_vline_ = ~0ull;
  uint32_t fetch_count_ = 0;
  StallCause pending_fetch_cause_ = StallCause::kNone;

  // Issue times of the last issue_queue_depth instructions (run-ahead bound).
  static constexpr int kMaxQueueDepth = 32;
  uint64_t recent_issue_[kMaxQueueDepth] = {};
  uint32_t recent_pos_ = 0;

  ExitReason exit_ = ExitReason::kHalted;
  bool exit_after_ = false;  // halt/yield: finish accounting, then stop
  uint64_t fault_vaddr_ = 0;
  CpuStats stats_;
};

}  // namespace dcpi

#endif  // SRC_CPU_CPU_H_
