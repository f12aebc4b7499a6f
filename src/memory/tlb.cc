#include "src/memory/tlb.h"

namespace dcpi {

bool Tlb::Access(uint64_t vaddr) {
  uint64_t vpage = vaddr / kPageBytes;
  ++use_clock_;
  if (mru_ < slots_.size() && slots_[mru_].vpage == vpage) {
    slots_[mru_].last_use = use_clock_;
    ++stats_.hits;
    return true;
  }
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].vpage == vpage) {
      slots_[i].last_use = use_clock_;
      ++stats_.hits;
      mru_ = i;
      return true;
    }
  }
  ++stats_.misses;
  if (slots_.size() < entries_) {
    mru_ = slots_.size();
    slots_.push_back({vpage, use_clock_});
    return false;
  }
  size_t victim = 0;
  for (size_t i = 1; i < slots_.size(); ++i) {
    if (slots_[i].last_use < slots_[victim].last_use) victim = i;
  }
  slots_[victim].vpage = vpage;
  slots_[victim].last_use = use_clock_;
  mru_ = victim;
  return false;
}

void Tlb::Clear() {
  slots_.clear();
  mru_ = 0;
  use_clock_ = 0;
}

}  // namespace dcpi
