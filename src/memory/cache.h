// Set-associative cache timing model.
//
// The simulator models the 21164-like hierarchy the paper profiles on:
// small direct-mapped on-chip I- and D-caches backed by a large
// direct-mapped board cache, with physically-indexed lookups so that the
// per-run virtual-to-physical page colouring changes conflict behaviour
// (the mechanism behind Figure 3's cross-run variance).
//
// The cache tracks only tags (timing, not data); data contents live in the
// process address space. Lookups index with shifts and masks, so the line
// size and the number of sets must be powers of two (associativity need
// not be); ValidateCacheConfig() states the rule.

#ifndef SRC_MEMORY_CACHE_H_
#define SRC_MEMORY_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/support/status.h"

namespace dcpi {

struct CacheConfig {
  uint64_t size_bytes = 8 * 1024;
  uint64_t line_bytes = 32;
  uint32_t associativity = 1;
};

// Ok if `config` describes a cache this model can index: non-zero
// associativity, a line size and a set count that are powers of two, and a
// size that is a whole number of sets.
Status ValidateCacheConfig(const CacheConfig& config);

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;

  double MissRate() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(misses) / static_cast<double>(total);
  }
};

class Cache {
 public:
  // Refuses a config ValidateCacheConfig() rejects: prints its message and
  // aborts (a cache geometry is fixed at build time, never read from input).
  explicit Cache(const CacheConfig& config);

  // Looks up `paddr`; on a miss the line is filled (LRU victim within the
  // set). Returns true on hit.
  bool Access(uint64_t paddr);

  // Lookup without fill (used by write-through stores).
  bool Probe(uint64_t paddr) const;

  // Invalidate the line containing `paddr` if present.
  void InvalidateLine(uint64_t paddr);

  void Clear();

  const CacheStats& stats() const { return stats_; }
  const CacheConfig& config() const { return config_; }
  uint32_t line_shift() const { return line_shift_; }

 private:
  struct Way {
    uint64_t tag = 0;
    bool valid = false;
    uint64_t last_use = 0;
  };

  uint64_t SetIndex(uint64_t paddr) const { return (paddr >> line_shift_) & set_mask_; }
  uint64_t Tag(uint64_t paddr) const { return paddr >> tag_shift_; }

  CacheConfig config_;
  uint32_t line_shift_ = 0;  // log2(line_bytes)
  uint32_t tag_shift_ = 0;   // log2(line_bytes * sets)
  uint64_t set_mask_ = 0;    // sets - 1
  std::vector<Way> ways_;  // num_sets_ * associativity, set-major
  uint64_t use_clock_ = 0;
  CacheStats stats_;
};

}  // namespace dcpi

#endif  // SRC_MEMORY_CACHE_H_
