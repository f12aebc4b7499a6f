// Ground truth collected directly by the simulator: per-instruction
// execution counts, head-of-issue-queue cycles, per-cause stall cycles, and
// per-edge execution counts.
//
// This plays the role the paper's dcpix (pixie-like instrumentation) plays
// in Section 6.2: an exact reference against which the sample-based
// frequency estimates and culprit analysis are validated (Figures 8-10).
// The analysis tools never read it.

#ifndef SRC_CPU_GROUND_TRUTH_H_
#define SRC_CPU_GROUND_TRUTH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/isa/image.h"

namespace dcpi {

enum class StallCause : uint8_t {
  kNone = 0,
  kIcacheMiss,
  kItbMiss,
  kDcacheMiss,   // dependency on an outstanding load miss
  kDtbMiss,
  kWriteBuffer,
  kBranchMispredict,
  kImulBusy,
  kFdivBusy,
  kDependency,   // operand not ready (non-miss latency)
  kSlotting,
  kSync,         // memory-barrier drain
  kFetchWidth,   // front-end bandwidth
  kStallCauseCount,
};

inline constexpr int kNumStallCauses = static_cast<int>(StallCause::kStallCauseCount);

const char* StallCauseName(StallCause cause);

struct InstructionTruth {
  uint64_t exec_count = 0;
  uint64_t head_cycles = 0;  // total cycles at the head of the issue queue
  uint64_t stall_cycles[kNumStallCauses] = {};
  uint64_t imiss_events = 0;
  uint64_t dmiss_events = 0;
  uint64_t mispredict_events = 0;
  uint64_t dtbmiss_events = 0;
};

// Per-image ground truth, dense per instruction.
struct ImageTruth {
  std::shared_ptr<const ExecutableImage> image;
  std::vector<InstructionTruth> instructions;               // by instruction index
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> edges;  // (from_off, to_off) -> count
};

class GroundTruth {
 public:
  GroundTruth() = default;
  // The lookup caches point into this object's own images: no copies.
  GroundTruth(const GroundTruth&) = delete;
  GroundTruth& operator=(const GroundTruth&) = delete;

  // Registers an image; instruction counters are indexed by PC range.
  void AddImage(std::shared_ptr<const ExecutableImage> image);

  // Moves every counter in this recorder into `dst`, zeroing them here.
  // `dst` must have been given the same AddImage sequence. The kernel uses
  // this to fold per-CPU recorder shards (one per host thread, so recording
  // needs no synchronization) into the merged machine-wide view.
  void DrainInto(GroundTruth* dst);

  // The truth record for an absolute PC (images are prelinked at unique
  // addresses). Returns nullptr for unknown PCs. The simulator calls this
  // once per instruction: the image hit last is checked inline, and only
  // a PC outside it searches the images.
  InstructionTruth* ForPc(uint64_t pc) {
    if (!HitContains(pc) && FindPc(pc) == nullptr) return nullptr;
    return &hit_truth_[(pc - hit_base_) / kInstrBytes];
  }

  // Counts a taken edge; ignored unless both PCs are in one image. A
  // repeat of a recent edge bumps its count without walking the map.
  void AddEdge(uint64_t from_pc, uint64_t to_pc) {
    RecentEdge& recent = recent_edges_[(from_pc / kInstrBytes) % kRecentEdges];
    if (recent.from_pc == from_pc && recent.to_pc == to_pc) {
      ++*recent.count;
    } else {
      AddNewEdge(from_pc, to_pc, &recent);
    }
  }

  const ImageTruth* FindImage(const ExecutableImage* image) const;
  const std::vector<ImageTruth>& images() const { return images_; }

 private:
  // A recently counted edge and its count in the image's edges map
  // (std::map nodes do not move while the entry exists).
  struct RecentEdge {
    uint64_t from_pc = ~0ull;  // no instruction is at an all-ones PC
    uint64_t to_pc = 0;
    uint64_t* count = nullptr;
  };
  static constexpr uint64_t kRecentEdges = 256;  // direct-mapped by from_pc

  bool HitContains(uint64_t pc) const { return pc - hit_base_ < hit_bytes_; }
  // Searches the images for `pc` and makes its image the cached hit;
  // nullptr (cache unchanged) if no image holds it.
  ImageTruth* FindPc(uint64_t pc);
  void AddNewEdge(uint64_t from_pc, uint64_t to_pc, RecentEdge* recent);
  // Drops every cached pointer into images_ (before it moves or clears).
  void ForgetRecent();

  std::vector<ImageTruth> images_;  // sorted by text_base

  // The image hit last, and its text range [hit_base_, hit_base_ +
  // hit_bytes_) and truth array; empty until the first lookup and after
  // every AddImage.
  ImageTruth* last_hit_ = nullptr;
  uint64_t hit_base_ = 0;
  uint64_t hit_bytes_ = 0;
  InstructionTruth* hit_truth_ = nullptr;
  RecentEdge recent_edges_[kRecentEdges];
};

}  // namespace dcpi

#endif  // SRC_CPU_GROUND_TRUTH_H_
