// Driver tests: the sample hash table (aggregation, eviction policies,
// count saturation), overflow buffering, cost accounting, and flushes.

#include <gtest/gtest.h>

#include <vector>

#include "src/driver/driver.h"
#include "src/support/rng.h"

namespace dcpi {
namespace {

SampleKey Key(uint32_t pid, uint64_t pc) { return {pid, pc, EventType::kCycles}; }

TEST(SampleHashTable, AggregatesRepeatedSamples) {
  SampleHashTable table(HashTableConfig{});
  for (int i = 0; i < 100; ++i) {
    auto result = table.Record(Key(1, 0x1000));
    EXPECT_EQ(result.hit, i > 0);
    EXPECT_FALSE(result.evicted);
  }
  uint64_t count = 0;
  table.Flush([&](const SampleRecord& r) { count = r.count; });
  EXPECT_EQ(count, 100u);
  EXPECT_EQ(table.live_entries(), 0u);  // flush cleared it
}

TEST(SampleHashTable, DistinctPidsAreDistinctKeys) {
  // The gcc effect: same PC under different PIDs occupies separate entries.
  SampleHashTable table(HashTableConfig{});
  table.Record(Key(1, 0x1000));
  table.Record(Key(2, 0x1000));
  table.Record(Key(3, 0x1000));
  EXPECT_EQ(table.live_entries(), 3u);
}

TEST(SampleHashTable, EvictsWhenBucketFull) {
  HashTableConfig config;
  config.buckets = 1;  // force every key into one bucket
  config.associativity = 4;
  SampleHashTable table(config);
  for (uint64_t k = 0; k < 4; ++k) table.Record(Key(1, 0x1000 + k * 4));
  EXPECT_EQ(table.stats().evictions, 0u);
  auto result = table.Record(Key(1, 0x2000));
  EXPECT_TRUE(result.evicted);
  EXPECT_EQ(result.victim.count, 1u);
  EXPECT_EQ(table.stats().evictions, 1u);
}

TEST(SampleHashTable, ModCounterRotatesVictims) {
  HashTableConfig config;
  config.buckets = 1;
  config.associativity = 2;
  config.replacement = Replacement::kModCounter;
  SampleHashTable table(config);
  table.Record(Key(1, 0x10));
  table.Record(Key(1, 0x20));
  auto e1 = table.Record(Key(1, 0x30));  // evicts slot 0
  auto e2 = table.Record(Key(1, 0x40));  // evicts slot 1
  EXPECT_TRUE(e1.evicted);
  EXPECT_TRUE(e2.evicted);
  EXPECT_NE(e1.victim.key.pc, e2.victim.key.pc);
}

TEST(SampleHashTable, SwapToFrontProtectsHotEntries) {
  HashTableConfig config;
  config.buckets = 1;
  config.associativity = 2;
  config.replacement = Replacement::kSwapToFront;
  SampleHashTable table(config);
  table.Record(Key(1, 0x10));
  for (int i = 0; i < 10; ++i) table.Record(Key(1, 0x10));  // hot, at front
  table.Record(Key(1, 0x20));
  auto evict = table.Record(Key(1, 0x30));  // LRU victim = back of line
  ASSERT_TRUE(evict.evicted);
  EXPECT_EQ(evict.victim.key.pc, 0x10u);  // hmm: 0x20 swapped to front, 0x10 at back
}

TEST(SampleHashTable, CountSaturationSpillsToOverflow) {
  HashTableConfig config;
  config.max_count = 4;
  SampleHashTable table(config);
  SampleHashTable::RecordResult last;
  for (int i = 0; i < 5; ++i) last = table.Record(Key(1, 0x10));
  EXPECT_TRUE(last.evicted);  // saturated aggregate pushed out
  EXPECT_EQ(last.victim.count, 4u);
}

TEST(DcpiDriver, CostModelDistinguishesHitAndMiss) {
  DriverConfig config;
  DcpiDriver driver(1, config);
  uint64_t miss_cost = driver.DeliverSample(0, 1, 0x1000, EventType::kCycles);
  uint64_t hit_cost = driver.DeliverSample(0, 1, 0x1000, EventType::kCycles);
  EXPECT_EQ(miss_cost, config.intr_setup_cycles + config.miss_body_cycles);
  EXPECT_EQ(hit_cost, config.intr_setup_cycles + config.hit_body_cycles);
  EXPECT_GT(miss_cost, hit_cost);
  EXPECT_EQ(driver.cpu_stats(0).interrupts, 2u);
  EXPECT_EQ(driver.cpu_stats(0).hash_hits, 1u);
}

TEST(DcpiDriver, SaturatedHitIsChargedAsMiss) {
  // A hit on an entry whose count has saturated evicts the aggregate to
  // the overflow buffer, so the handler takes the miss path: the stats
  // must count it as a miss and charge it miss-path cycles.
  DriverConfig config;
  config.hash.max_count = 3;
  DcpiDriver driver(1, config);
  uint64_t drained = 0;
  driver.set_overflow_handler(
      [&](uint32_t, const std::vector<OverflowRecord>& records) {
        for (const auto& r : records) drained += r.narrow.count;
      });
  std::vector<uint64_t> costs;
  for (int i = 0; i < 4; ++i) {
    costs.push_back(driver.DeliverSample(0, 1, 0x1000, EventType::kCycles));
  }
  const uint64_t hit = config.intr_setup_cycles + config.hit_body_cycles;
  const uint64_t miss = config.intr_setup_cycles + config.miss_body_cycles;
  // Insert (miss), two hits up to the cap, then the saturated hit (miss).
  EXPECT_EQ(costs, (std::vector<uint64_t>{miss, hit, hit, miss}));
  EXPECT_EQ(driver.TotalTableStats().saturation_spills, 1u);

  DriverCpuStats stats = driver.cpu_stats(0);
  EXPECT_EQ(stats.interrupts, 4u);
  EXPECT_EQ(stats.hash_hits, 2u);
  EXPECT_EQ(stats.hash_misses, 2u);
  EXPECT_EQ(stats.hit_path_cycles, 2 * hit);
  EXPECT_EQ(stats.miss_path_cycles, 2 * miss);
  EXPECT_EQ(stats.handler_cycles, 2 * hit + 2 * miss);
  EXPECT_EQ(stats.handler_cycles, costs[0] + costs[1] + costs[2] + costs[3]);
  // TotalStats is built by the same pricing as the per-CPU snapshot.
  EXPECT_EQ(driver.TotalStats().miss_path_cycles, stats.miss_path_cycles);

  driver.FlushAll();
  EXPECT_EQ(drained, 4u);  // the spilled aggregate of 3 plus the live 1
}

TEST(DcpiDriver, OverflowBufferHandedToDaemonWhenFull) {
  DriverConfig config;
  config.hash.buckets = 1;
  config.hash.associativity = 2;
  config.overflow_entries = 4;
  DcpiDriver driver(1, config);
  std::vector<size_t> delivered_sizes;
  driver.set_overflow_handler(
      [&](uint32_t cpu, const std::vector<OverflowRecord>& records) {
        EXPECT_EQ(cpu, 0u);
        delivered_sizes.push_back(records.size());
      });
  // Stream distinct keys: every record after the first two evicts.
  for (uint64_t k = 0; k < 20; ++k) {
    driver.DeliverSample(0, 1, 0x1000 + k * 8, EventType::kCycles);
  }
  ASSERT_FALSE(delivered_sizes.empty());
  for (size_t size : delivered_sizes) EXPECT_EQ(size, 4u);
}

TEST(DcpiDriver, FlushAllDrainsEverything) {
  DcpiDriver driver(2, DriverConfig{});
  driver.DeliverSample(0, 1, 0x1000, EventType::kCycles);
  driver.DeliverSample(1, 2, 0x2000, EventType::kImiss);
  uint64_t total = 0;
  driver.set_overflow_handler(
      [&](uint32_t cpu, const std::vector<OverflowRecord>& records) {
        (void)cpu;
        for (const auto& r : records) total += r.narrow.count;
      });
  driver.FlushAll();
  EXPECT_EQ(total, 2u);
}

TEST(DcpiDriver, PerCpuStateIsIndependent) {
  DcpiDriver driver(2, DriverConfig{});
  driver.DeliverSample(0, 1, 0x1000, EventType::kCycles);
  driver.DeliverSample(1, 1, 0x1000, EventType::kCycles);
  // Both CPUs saw a miss (separate tables), not one miss + one hit.
  EXPECT_EQ(driver.cpu_stats(0).hash_misses, 1u);
  EXPECT_EQ(driver.cpu_stats(1).hash_misses, 1u);
}

TEST(DcpiDriver, KernelMemoryMatchesPaper) {
  // 4096 buckets x one 64-B line (six packed 16-B entries fit because the
  // count field narrows to 16 bits) + 2 x 8192 x 16 B overflow buffers =
  // 512 KB per CPU — the same footprint as the paper's 4-way layout.
  DcpiDriver driver(1, DriverConfig{});
  EXPECT_EQ(driver.KernelMemoryBytesPerCpu(), 512u * 1024);
}

TEST(DcpiDriver, RequestedFlushIsServicedAtNextSampleWithIpiCost) {
  DriverConfig config;
  DcpiDriver driver(1, config);
  driver.DeliverSample(0, 1, 0x1000, EventType::kCycles);
  uint64_t drained = 0;
  driver.set_overflow_handler(
      [&](uint32_t, const std::vector<OverflowRecord>& records) {
        for (const auto& r : records) drained += r.narrow.count;
      });
  driver.RequestFlush();
  // The next interrupt on the CPU performs the flush and pays the IPI cost.
  uint64_t cost = driver.DeliverSample(0, 1, 0x2000, EventType::kCycles);
  EXPECT_EQ(cost, config.ipi_flush_cycles + config.intr_setup_cycles +
                      config.miss_body_cycles);
  EXPECT_EQ(drained, 1u);  // the first sample left the hash table
  EXPECT_EQ(driver.cpu_stats(0).flush_requests_serviced, 1u);
}

// Property tests: random key streams across every replacement policy and
// hash kind must preserve the table's accounting invariants.

struct HashPropertyStats {
  uint64_t flushed_count = 0;   // residue drained at the end
  uint64_t evicted_count = 0;   // victims pushed to the overflow path
};

HashPropertyStats DriveRandomStream(SampleHashTable* table, uint64_t num_records,
                                    uint32_t key_space, uint64_t seed) {
  SplitMix64 rng(seed);
  HashPropertyStats out;
  for (uint64_t i = 0; i < num_records; ++i) {
    SampleKey key{static_cast<uint32_t>(rng.NextBelow(7) + 1),
                  0x1000 + rng.NextBelow(key_space) * 4,
                  rng.NextBelow(4) == 0 ? EventType::kImiss : EventType::kCycles};
    auto result = table->Record(key);
    if (result.evicted) {
      EXPECT_LE(result.victim.count, table->config().max_count);
      EXPECT_GT(result.victim.count, 0u);
      out.evicted_count += result.victim.count;
    }
  }
  table->Flush([&](const SampleRecord& r) {
    EXPECT_LE(r.count, table->config().max_count);
    EXPECT_GT(r.count, 0u);
    out.flushed_count += r.count;
  });
  return out;
}

TEST(SampleHashTableProperty, CountConservationAcrossPoliciesAndHashes) {
  const Replacement kPolicies[] = {Replacement::kModCounter, Replacement::kSwapToFront};
  const HashKind kHashes[] = {HashKind::kMultiplicative, HashKind::kXorFold};
  uint64_t seed = 7;
  for (Replacement policy : kPolicies) {
    for (HashKind hash : kHashes) {
      HashTableConfig config;
      config.buckets = 64;  // small table: force heavy eviction traffic
      config.associativity = 4;
      config.replacement = policy;
      config.hash = hash;
      SampleHashTable table(config);
      constexpr uint64_t kRecords = 50'000;
      HashPropertyStats out = DriveRandomStream(&table, kRecords, 4096, ++seed);
      // Every recorded sample is either still in the table at the end or
      // was handed to the overflow path exactly once: nothing lost,
      // nothing double-counted.
      EXPECT_EQ(out.flushed_count + out.evicted_count, kRecords)
          << "policy=" << static_cast<int>(policy) << " hash=" << static_cast<int>(hash);
      // The fundamental accounting identity.
      EXPECT_EQ(table.stats().lookups, kRecords);
      EXPECT_EQ(table.stats().hits + table.stats().misses, table.stats().lookups);
      EXPECT_LE(table.stats().evictions, table.stats().misses);
      EXPECT_EQ(table.live_entries(), 0u);  // flush cleared everything
    }
  }
}

TEST(SampleHashTableProperty, SaturationNeverExceedsMaxCount) {
  const Replacement kPolicies[] = {Replacement::kModCounter, Replacement::kSwapToFront};
  const HashKind kHashes[] = {HashKind::kMultiplicative, HashKind::kXorFold};
  for (Replacement policy : kPolicies) {
    for (HashKind hash : kHashes) {
      HashTableConfig config;
      config.buckets = 16;
      config.max_count = 8;  // tiny saturation threshold
      config.replacement = policy;
      config.hash = hash;
      SampleHashTable table(config);
      // A skewed stream (few keys, many repeats) hammers the saturation
      // path; DriveRandomStream checks count <= max_count on every record
      // it sees. Conservation must hold through saturation evictions too.
      constexpr uint64_t kRecords = 20'000;
      HashPropertyStats out = DriveRandomStream(&table, kRecords, 8, 42);
      EXPECT_EQ(out.flushed_count + out.evicted_count, kRecords);
      EXPECT_EQ(table.stats().hits + table.stats().misses, kRecords);
    }
  }
}

}  // namespace
}  // namespace dcpi
