#include "src/memory/cache.h"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace dcpi {

Status ValidateCacheConfig(const CacheConfig& config) {
  std::string geometry = std::to_string(config.size_bytes) + " bytes, " +
                         std::to_string(config.line_bytes) + "-byte lines, " +
                         std::to_string(config.associativity) + "-way";
  if (config.associativity == 0 || !std::has_single_bit(config.line_bytes)) {
    return InvalidArgument("cache " + geometry +
                           ": line size must be a power of two and associativity non-zero");
  }
  uint64_t set_bytes = config.line_bytes * config.associativity;
  uint64_t sets = config.size_bytes / set_bytes;
  if (config.size_bytes % set_bytes != 0 || !std::has_single_bit(sets)) {
    return InvalidArgument("cache " + geometry +
                           ": number of sets must be a power of two");
  }
  return Status::Ok();
}

Cache::Cache(const CacheConfig& config) : config_(config) {
  Status valid = ValidateCacheConfig(config);
  if (!valid.ok()) {
    std::fprintf(stderr, "Cache: %s\n", valid.ToString().c_str());
    std::abort();
  }
  uint64_t sets = config.size_bytes / (config.line_bytes * config.associativity);
  line_shift_ = static_cast<uint32_t>(std::countr_zero(config.line_bytes));
  tag_shift_ = line_shift_ + static_cast<uint32_t>(std::countr_zero(sets));
  set_mask_ = sets - 1;
  ways_.resize(sets * config.associativity);
}

bool Cache::Access(uint64_t paddr) {
  uint64_t set = SetIndex(paddr);
  uint64_t tag = Tag(paddr);
  Way* base = &ways_[set * config_.associativity];
  ++use_clock_;
  for (uint32_t w = 0; w < config_.associativity; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      base[w].last_use = use_clock_;
      ++stats_.hits;
      return true;
    }
  }
  ++stats_.misses;
  // Fill: LRU victim (invalid ways first).
  Way* victim = &base[0];
  for (uint32_t w = 0; w < config_.associativity; ++w) {
    if (!base[w].valid) {
      victim = &base[w];
      break;
    }
    if (base[w].last_use < victim->last_use) victim = &base[w];
  }
  victim->valid = true;
  victim->tag = tag;
  victim->last_use = use_clock_;
  return false;
}

bool Cache::Probe(uint64_t paddr) const {
  uint64_t set = SetIndex(paddr);
  uint64_t tag = Tag(paddr);
  const Way* base = &ways_[set * config_.associativity];
  for (uint32_t w = 0; w < config_.associativity; ++w) {
    if (base[w].valid && base[w].tag == tag) return true;
  }
  return false;
}

void Cache::InvalidateLine(uint64_t paddr) {
  uint64_t set = SetIndex(paddr);
  uint64_t tag = Tag(paddr);
  Way* base = &ways_[set * config_.associativity];
  for (uint32_t w = 0; w < config_.associativity; ++w) {
    if (base[w].valid && base[w].tag == tag) base[w].valid = false;
  }
}

void Cache::Clear() {
  for (Way& w : ways_) w.valid = false;
  use_clock_ = 0;
}

}  // namespace dcpi
