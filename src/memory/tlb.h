// Translation look-aside buffers (ITB / DTB).
//
// Fully-associative with LRU replacement, matching the 21164's 48-entry ITB
// and 64-entry DTB. A miss costs the PAL-code fill penalty; the walk itself
// is not simulated. Lookups try the most recently hit slot first; a page
// occupies at most one slot, so this finds the same slot the full scan
// would and the LRU state is unchanged.

#ifndef SRC_MEMORY_TLB_H_
#define SRC_MEMORY_TLB_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/isa/isa.h"

namespace dcpi {

struct TlbStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
};

class Tlb {
 public:
  explicit Tlb(uint32_t entries) : entries_(entries) {}

  // Returns true if the page containing vaddr is mapped (hit); on a miss the
  // entry is filled.
  bool Access(uint64_t vaddr);

  void Clear();  // e.g. on context switch (our ASNs are not modelled)

  const TlbStats& stats() const { return stats_; }

 private:
  struct Entry {
    uint64_t vpage;
    uint64_t last_use;
  };

  uint32_t entries_;
  std::vector<Entry> slots_;
  size_t mru_ = 0;  // slot of the last hit or fill
  uint64_t use_clock_ = 0;
  TlbStats stats_;
};

}  // namespace dcpi

#endif  // SRC_MEMORY_TLB_H_
