#include "src/memory/memory_system.h"

namespace dcpi {

uint64_t PageMapper::Lookup(uint64_t vpage) {
  auto it = map_.find(vpage);
  if (it == map_.end()) {
    uint64_t ppage = rng_.Next() & 0x3ffff;  // 256K pages = 2 GB physical
    it = map_.emplace(vpage, ppage).first;
  }
  return it->second;
}

MemorySystem::MemorySystem(const MemoryConfig& config)
    : config_(config),
      icache_(config.icache),
      dcache_(config.dcache),
      board_(config.board),
      itb_(config.itb_entries),
      dtb_(config.dtb_entries),
      wb_(config.wb_entries, config.board.line_bytes) {}

LoadResult MemorySystem::AccessLoad(uint64_t paddr) {
  LoadResult result;
  result.latency = config_.load_hit_latency;
  if (!dcache_.Access(paddr)) {
    result.dcache_miss = true;
    result.latency += config_.board_latency;
    if (!board_.Access(paddr)) {
      result.board_miss = true;
      result.latency += config_.memory_latency;
    }
  }
  return result;
}

FetchResult MemorySystem::AccessFetch(uint64_t vaddr, uint64_t paddr) {
  FetchResult result;
  if (!itb_.Access(vaddr)) {
    result.itb_miss = true;
    result.latency += config_.tlb_fill_penalty;
  }
  if (!icache_.Access(paddr)) {
    result.icache_miss = true;
    result.latency += config_.board_latency;
    if (!board_.Access(paddr)) {
      result.board_miss = true;
      result.latency += config_.memory_latency;
    }
  }
  return result;
}

void MemorySystem::CommitStore(uint64_t paddr, uint64_t issue_cycle) {
  // Write-through, no-allocate D-cache: a hit keeps the line, a miss does
  // not fill it. The drain time depends on whether the board cache has the
  // line (the write allocates there).
  dcache_.Probe(paddr);
  uint64_t drain =
      board_.Access(paddr) ? config_.wb_drain_board : config_.wb_drain_memory;
  wb_.Push(paddr, issue_cycle, drain);
}

void MemorySystem::PerturbDcache(uint32_t lines) {
  for (uint32_t i = 0; i < lines; ++i) {
    uint64_t paddr = perturb_rng_.Next() % config_.dcache.size_bytes;
    dcache_.InvalidateLine(paddr);
  }
}

}  // namespace dcpi
