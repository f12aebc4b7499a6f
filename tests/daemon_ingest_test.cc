// Differential and adversarial tests for the daemon's batched ingest path
// (Section 5.4's per-sample-work reduction): the batched staging-vector
// path must produce byte-identical profiles and databases to a per-record
// oracle (each record resolved and added on its own, as the 1997 daemon
// did) over partially-filled buffers, duplicate flushes, zero-count
// records, off-grid PCs, and unknown samples — and staged counts must
// never leak across a sealed epoch boundary. The modelled cost of a buffer
// is checked against both cost formulas.
//
// The last group covers the concurrent drain handoff: the drain thread
// sleeps when idle, every kind of work (a publish, a due timed flush, a
// stop) wakes it, and threaded collection reports exactly what sequential
// collection reports.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/daemon/daemon.h"
#include "src/isa/assembler.h"
#include "src/profiledb/database.h"
#include "src/support/rng.h"
#include "src/workloads/workloads.h"
#include "tests/testgen.h"

namespace dcpi {
namespace {

std::shared_ptr<ExecutableImage> TinyImage(const std::string& name, uint64_t base) {
  auto image = Assemble(name, base, "nop\nnop\nnop\nnop\nhalt\n");
  return image.value();
}

constexpr uint32_t kPid = 7;

// libA and libB, both mapped under pid 7; nothing is mapped under pid 9.
std::vector<std::shared_ptr<ExecutableImage>> StandardImages() {
  return {TinyImage("libA", 0x0100'0000), TinyImage("libB", 0x0200'0000)};
}

void LoadStandardMaps(Daemon* daemon) {
  std::vector<LoaderEvent> events;
  for (auto& image : StandardImages()) {
    events.push_back({LoaderEvent::Kind::kLoadImage, kPid, std::move(image)});
  }
  daemon->ProcessLoaderEvents(std::move(events));
}

using ProfileBytes = std::map<std::pair<std::string, int>, std::vector<uint8_t>>;

// The reference ingest: every record is resolved against the standard
// images on its own and summed into a std::map, with no staging and no
// grouping. Unresolvable samples land at offset 0 of the "unknown" image,
// and zero-count records carry nothing. Its database writes go through the
// same ProfileDatabase calls the daemon makes at a flush, roll and seal.
class PerRecordOracle {
 public:
  void Ingest(const std::vector<SampleRecord>& records) {
    for (const SampleRecord& record : records) {
      if (record.count == 0) continue;
      std::string image = "unknown";
      uint64_t offset = 0;
      for (const auto& candidate : images_) {
        if (record.key.pid == kPid && record.key.pc >= candidate->text_base() &&
            record.key.pc < candidate->text_end()) {
          image = candidate->name();
          offset = record.key.pc - candidate->text_base();
        }
      }
      counts_[{image, static_cast<int>(record.key.event)}][offset] += record.count;
    }
  }

  std::vector<ImageProfile> Profiles() const {
    std::vector<ImageProfile> profiles;
    for (const auto& [key, offsets] : counts_) {
      ImageProfile profile(key.first, static_cast<EventType>(key.second), 0.0);
      for (const auto& [offset, count] : offsets) profile.AddSamples(offset, count);
      profiles.push_back(std::move(profile));
    }
    return profiles;
  }

  ProfileBytes Snapshot() const {
    ProfileBytes snapshot;
    for (const ImageProfile& profile : Profiles()) {
      snapshot[{profile.image_name(), static_cast<int>(profile.event())}] =
          SerializeProfile(profile);
    }
    return snapshot;
  }

  void Flush(ProfileDatabase* db) const {
    for (const ImageProfile& profile : Profiles()) {
      ASSERT_TRUE(db->ReplaceProfile(profile).ok());
    }
  }

  // Daemon::RollEpoch: flush, seal, open the next epoch, restart empty.
  void Roll(ProfileDatabase* db, uint64_t at_cycles) {
    Flush(db);
    ASSERT_TRUE(db->SealCurrentEpoch(at_cycles).ok());
    ASSERT_TRUE(db->NewEpoch().ok());
    counts_.clear();
  }

 private:
  std::vector<std::shared_ptr<ExecutableImage>> images_ = StandardImages();
  std::map<std::pair<std::string, int>, std::map<uint64_t, uint64_t>> counts_;
};

// Serialized bytes of every in-memory profile, keyed by (image, event).
ProfileBytes Snapshot(const Daemon& daemon) {
  ProfileBytes snapshot;
  for (const ImageProfile* profile : daemon.AllProfiles()) {
    snapshot[{profile->image_name(), static_cast<int>(profile->event())}] =
        SerializeProfile(*profile);
  }
  return snapshot;
}

// An adversarial buffer mix: mapped PCs (both images), unmapped PCs, a
// wrong PID, an off-grid PC (offset not a multiple of 4 — takes the
// batched path's direct profile add), zero-count records, and a second
// event type interleaved with the first.
std::vector<SampleRecord> AdversarialRecords(SplitMix64& rng, int length) {
  std::vector<SampleRecord> records;
  records.reserve(length);
  for (int i = 0; i < length; ++i) {
    SampleRecord record;
    switch (rng.NextBelow(8)) {
      case 0:  // libB
        record.key = {kPid, 0x0200'0000 + rng.NextBelow(5) * 4, EventType::kCycles};
        break;
      case 1:  // unmapped PC
        record.key = {kPid, 0x0300'0000, EventType::kCycles};
        break;
      case 2:  // wrong pid
        record.key = {9, 0x0100'0004, EventType::kCycles};
        break;
      case 3:  // off-grid PC inside libA
        record.key = {kPid, 0x0100'0002, EventType::kCycles};
        break;
      case 4:  // imiss samples for libA
        record.key = {kPid, 0x0100'0000 + rng.NextBelow(5) * 4, EventType::kImiss};
        break;
      default:  // the common case: cycles in libA
        record.key = {kPid, 0x0100'0000 + rng.NextBelow(5) * 4, EventType::kCycles};
        break;
    }
    record.count = rng.NextBelow(5);  // 0 is legal: an empty hash line slot
    records.push_back(record);
  }
  return records;
}

TEST(DaemonIngest, BatchedMatchesLegacyOverAdversarialBuffers) {
  constexpr int kTrials = 16;
  for (int trial = 0; trial < kTrials; ++trial) {
    SplitMix64 rng(0xBA7C'0000ull + trial);
    Daemon daemon(nullptr, nullptr, {});
    LoadStandardMaps(&daemon);
    PerRecordOracle oracle;

    // A run is a sequence of buffers of wildly varying fill levels,
    // including empty ones (a drained buffer can be partially filled or
    // empty at flush time).
    int buffers = 1 + static_cast<int>(rng.NextBelow(8));
    uint64_t records_seen = 0;
    for (int b = 0; b < buffers; ++b) {
      int length = static_cast<int>(rng.NextBelow(40));  // 0 = empty buffer
      std::vector<SampleRecord> records = AdversarialRecords(rng, length);
      daemon.ProcessBuffer(0, records);
      oracle.Ingest(records);
      records_seen += records.size();
    }

    EXPECT_EQ(Snapshot(daemon), oracle.Snapshot()) << "trial " << trial;
    EXPECT_EQ(daemon.stats().records_processed, records_seen);
    EXPECT_EQ(daemon.stats().buffers, static_cast<uint64_t>(buffers));
  }
}

TEST(DaemonIngest, DuplicateFlushIsAdditiveInBothPaths) {
  // The driver may legally drain the same aggregate twice (e.g. a key
  // evicted and re-inserted); ingest must accumulate, not replace.
  Daemon daemon(nullptr, nullptr, {});
  LoadStandardMaps(&daemon);
  std::vector<SampleRecord> records;
  records.push_back({{kPid, 0x0100'0004, EventType::kCycles}, 10});
  daemon.ProcessBuffer(0, records);
  daemon.ProcessBuffer(1, records);  // duplicate flush, different CPU
  const ImageProfile* profile = daemon.FindProfile("libA", EventType::kCycles);
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->SamplesAt(4), 20u);
}

TEST(DaemonIngest, EmptyAndZeroCountBuffersCreateNoProfiles) {
  Daemon daemon(nullptr, nullptr, {});
  LoadStandardMaps(&daemon);
  daemon.ProcessBuffer(0, std::vector<SampleRecord>{});
  std::vector<SampleRecord> zeros(5, {{kPid, 0x0100'0000, EventType::kCycles}, 0});
  daemon.ProcessBuffer(0, zeros);
  // Zero-count records carry no samples: no profile may materialize (a
  // zero-count map entry would change the serialized bytes without
  // changing any total).
  EXPECT_TRUE(daemon.AllProfiles().empty());
  EXPECT_EQ(daemon.stats().records_processed, 5u);
  EXPECT_EQ(daemon.stats().samples_attributed, 0u);
}

TEST(DaemonIngest, BatchedAmortizesLockAcquisitions) {
  Daemon daemon(nullptr, nullptr, {});
  LoadStandardMaps(&daemon);
  // 30 records over 2 (image, event) pairs: 2 groups, not 30.
  std::vector<SampleRecord> records;
  for (int i = 0; i < 15; ++i) {
    records.push_back(
        {{kPid, 0x0100'0000 + static_cast<uint64_t>(i % 5) * 4, EventType::kCycles}, 1});
    records.push_back(
        {{kPid, 0x0200'0000 + static_cast<uint64_t>(i % 5) * 4, EventType::kCycles}, 1});
  }
  daemon.ProcessBuffer(0, records);
  EXPECT_EQ(daemon.stats().ingest_groups, 2u);
  EXPECT_EQ(daemon.stats().records_processed, 30u);
  // The modelled cost charges per record + per group + per buffer.
  const DaemonConfig& config = daemon.config();
  EXPECT_EQ(daemon.stats().daemon_cycles,
            30 * config.cycles_per_record_batched + 2 * config.cycles_per_group +
                config.cycles_per_buffer_flush);
  // Reading a profile drains its staging vector exactly once.
  uint64_t drains_before = daemon.stats().staging_drains;
  ASSERT_NE(daemon.FindProfile("libA", EventType::kCycles), nullptr);
  EXPECT_EQ(daemon.stats().staging_drains, drains_before + 1);
}

OverflowRecord WideAt(uint64_t pc) {
  WideSampleRecord wide;
  wide.pid = kPid;
  wide.pc = pc;
  wide.has_data = true;
  wide.data_va = 0x4000'0040;
  wide.latency = 12;
  wide.level = MemLevel::kBoard;
  return OverflowRecord::Wide(wide);
}

TEST(DaemonIngest, CostFormulasPriceEveryRecordKind) {
  Daemon daemon(nullptr, nullptr, {});
  LoadStandardMaps(&daemon);
  // Buffer 1: three narrow libA records (one zero-count) and one wide libA
  // record — a single (libA, cycles) group.
  daemon.ProcessBuffer(0, {OverflowRecord::Narrow({{kPid, 0x0100'0000, EventType::kCycles}, 3}),
                           OverflowRecord::Narrow({{kPid, 0x0100'0004, EventType::kCycles}, 0}),
                           OverflowRecord::Narrow({{kPid, 0x0100'0008, EventType::kCycles}, 1}),
                           WideAt(0x0100'000c)});
  // Buffer 2: two narrow libB records, a zero-count record, and a wide
  // record at an unmapped PC — (libB, cycles) and (unknown, cycles).
  daemon.ProcessBuffer(1, {OverflowRecord::Narrow({{kPid, 0x0200'0000, EventType::kCycles}, 2}),
                           OverflowRecord::Narrow({{kPid, 0x0200'0004, EventType::kCycles}, 5}),
                           OverflowRecord::Narrow({{9, 0x0100'0000, EventType::kCycles}, 0}),
                           WideAt(0x0300'0000)});
  DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.buffers, 2u);
  EXPECT_EQ(stats.records_processed, 8u);
  EXPECT_EQ(stats.wide_records, 2u);
  EXPECT_EQ(stats.ingest_groups, 3u);
  EXPECT_EQ(stats.samples_attributed, 12u);
  EXPECT_EQ(stats.samples_unknown, 1u);

  // Six narrow records (zero-count ones included: the daemon still reads
  // them), two wide records, two buffers, three groups.
  const DaemonConfig& config = daemon.config();
  EXPECT_EQ(stats.daemon_cycles,
            2 * config.cycles_per_buffer_flush + 6 * config.cycles_per_record_batched +
                3 * config.cycles_per_group + 2 * config.cycles_per_wide_record);
  EXPECT_EQ(stats.daemon_cycles, 2 * 6000u + 6 * 320u + 3 * 1100u + 2 * 500u);
  EXPECT_EQ(LegacyDaemonCycles(config, stats),
            2 * config.cycles_per_buffer_flush + 6 * kLegacyCyclesPerRecord +
                2 * config.cycles_per_wide_record);
  EXPECT_EQ(LegacyDaemonCycles(config, stats), 2 * 6000u + 6 * 950u + 2 * 500u);
}

class IngestDbTest : public ::testing::Test {
 protected:
  void SetUp() override { root_ = testgen::UniqueTempRoot(); }
  void TearDown() override { std::filesystem::remove_all(root_); }
  std::string root_;
};

TEST_F(IngestDbTest, EpochRollFlushesStagingIntoSealedEpoch) {
  // Samples staged (not yet merged) when a roll executes belong to the
  // epoch being sealed — they must land on disk in that epoch and must
  // not survive into the next one.
  ProfileDatabase db(root_);
  Daemon daemon(nullptr, &db, {});
  LoadStandardMaps(&daemon);

  std::vector<SampleRecord> epoch0;
  epoch0.push_back({{kPid, 0x0100'0000, EventType::kCycles}, 10});
  daemon.ProcessBuffer(0, epoch0);  // staged, never explicitly flushed
  ASSERT_TRUE(daemon.RollEpoch(100).ok());

  std::vector<SampleRecord> epoch1;
  epoch1.push_back({{kPid, 0x0100'0004, EventType::kCycles}, 5});
  daemon.ProcessBuffer(0, epoch1);
  ASSERT_TRUE(daemon.FlushToDatabase().ok());

  Result<ImageProfile> sealed = db.ReadProfile(0, "libA", EventType::kCycles);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed.value().SamplesAt(0), 10u);
  EXPECT_EQ(sealed.value().SamplesAt(4), 0u);

  Result<ImageProfile> open = db.ReadProfile(1, "libA", EventType::kCycles);
  ASSERT_TRUE(open.ok());
  EXPECT_EQ(open.value().SamplesAt(0), 0u);  // nothing leaked across the seal
  EXPECT_EQ(open.value().SamplesAt(4), 5u);

  // In memory, the new epoch restarted from zero too.
  const ImageProfile* live = daemon.FindProfile("libA", EventType::kCycles);
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->SamplesAt(0), 0u);
  EXPECT_EQ(live->total_samples(), 5u);
}

// Every regular file under `root`, as relative path -> raw bytes.
std::map<std::string, std::vector<uint8_t>> ReadTree(const std::string& root) {
  std::map<std::string, std::vector<uint8_t>> files;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    std::string rel = std::filesystem::relative(entry.path(), root).string();
    std::ifstream in(entry.path(), std::ios::binary);
    files[rel] = std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                      std::istreambuf_iterator<char>());
  }
  return files;
}

TEST_F(IngestDbTest, BatchedAndLegacyWriteIdenticalDatabases) {
  // End-to-end on-disk equivalence: same buffers, same roll and seal
  // points; the daemon and the per-record oracle must write byte-identical
  // profile files.
  SplitMix64 rng(0xD15Cull);
  std::vector<std::vector<SampleRecord>> buffers;
  for (int b = 0; b < 6; ++b) {
    buffers.push_back(AdversarialRecords(rng, 30));
  }
  const std::string daemon_root = root_ + "/daemon";
  const std::string oracle_root = root_ + "/oracle";
  {
    ProfileDatabase db(daemon_root);
    Daemon daemon(nullptr, &db, {});
    LoadStandardMaps(&daemon);
    for (size_t b = 0; b < buffers.size(); ++b) {
      daemon.ProcessBuffer(0, buffers[b]);
      if (b == 2) {
        ASSERT_TRUE(daemon.RollEpoch(1000).ok());
      }
    }
    ASSERT_TRUE(daemon.FlushToDatabase().ok());
    ASSERT_TRUE(daemon.SealCurrentEpoch(2000).ok());
    EXPECT_EQ(daemon.stats().epoch_rolls, 1u);
  }
  {
    ProfileDatabase db(oracle_root);
    PerRecordOracle oracle;
    for (size_t b = 0; b < buffers.size(); ++b) {
      oracle.Ingest(buffers[b]);
      if (b == 2) oracle.Roll(&db, 1000);
    }
    oracle.Flush(&db);
    ASSERT_TRUE(db.SealCurrentEpoch(2000).ok());
  }
  std::map<std::string, std::vector<uint8_t>> daemon_files = ReadTree(daemon_root);
  EXPECT_FALSE(daemon_files.empty());
  EXPECT_EQ(daemon_files, ReadTree(oracle_root));
}

// ---- The concurrent drain handoff ----

// User + system CPU time the whole process has used so far, in seconds.
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

// Polls `done` until it holds or 30 s pass. Only the test polls: the drain
// thread itself must be woken, which is what these tests check.
bool EventuallyTrue(const std::function<bool()>& done) {
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(DaemonIngest, IdleDrainThreadSleeps) {
  // The daemon should cost nothing while the driver has nothing for it: a
  // started drain thread with no producer sleeps instead of spinning.
  DcpiDriver driver(2, DriverConfig{});
  Daemon daemon(&driver, nullptr, {});
  daemon.StartDrainThread();
  double before = ProcessCpuSeconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  double used = ProcessCpuSeconds() - before;
  daemon.StopDrainThread();
  EXPECT_LT(used, 0.020) << "an idle drain thread used " << used * 1e3
                         << " ms of CPU in 200 ms";
}

TEST(DaemonIngest, StartStopWithoutWorkNeverHangs) {
  // A stop can land before the drain thread's first sweep, during a sweep,
  // or while the thread sleeps; each must wake it so the join returns. A
  // lost wake-up shows up as a hang (which the test timeout turns into a
  // failure).
  DcpiDriver driver(2, DriverConfig{});
  Daemon daemon(&driver, nullptr, {});
  for (int cycle = 0; cycle < 1000; ++cycle) {
    daemon.StartDrainThread();
    ASSERT_TRUE(daemon.drain_thread_running());
    daemon.StopDrainThread();
    ASSERT_FALSE(daemon.drain_thread_running());
  }
  EXPECT_EQ(daemon.stats().buffers, 0u);
}

TEST(DaemonIngest, PublishWakesSleepingDrainThread) {
  // With no stop in sight, a buffer published to a sleeping drain thread
  // must still reach the daemon: the publish itself is the wake-up.
  DcpiDriver driver(1, DriverConfig{});
  Daemon daemon(&driver, nullptr, {});
  LoadStandardMaps(&daemon);
  daemon.StartDrainThread();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it sleep
  driver.DeliverSample(0, kPid, 0x0100'0004, EventType::kCycles);
  driver.FlushCpu(0);  // publishes the one-record buffer
  EXPECT_TRUE(EventuallyTrue([&] { return daemon.stats().buffers == 1; }));
  daemon.StopDrainThread();
  EXPECT_EQ(daemon.stats().samples_attributed, 1u);
}

TEST(DaemonIngest, DueTimedFlushWakesSleepingDrainThread) {
  // Publishing the clock wakes the drain thread only once a timed flush is
  // due, and that wake-up alone is enough for the flush to run.
  const std::string root = testgen::UniqueTempRoot();
  {
    ProfileDatabase db(root);
    DcpiDriver driver(1, DriverConfig{});
    Daemon daemon(&driver, &db, {});
    EpochPolicy policy;
    policy.flush_interval_cycles = 1000;
    daemon.set_epoch_policy(policy);
    LoadStandardMaps(&daemon);
    daemon.ProcessBuffer(0, std::vector<SampleRecord>{
                                {{kPid, 0x0100'0000, EventType::kCycles}, 3}});
    daemon.StartDrainThread();
    daemon.PublishSimTime(999);  // not yet due
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(daemon.stats().timed_flushes, 0u);
    daemon.PublishSimTime(1000);
    EXPECT_TRUE(EventuallyTrue([&] { return daemon.stats().timed_flushes == 1; }));
    daemon.StopDrainThread();
    Result<ImageProfile> flushed = db.ReadProfile(0, "libA", EventType::kCycles);
    ASSERT_TRUE(flushed.ok());
    EXPECT_EQ(flushed.value().SamplesAt(0), 3u);
  }
  std::filesystem::remove_all(root);
}

TEST(DaemonIngest, ThreadedTimedFlushesWriteSequentialDatabase) {
  // Timed flushes on the threaded path run on the drain thread, woken by
  // the CPU workers' clock; the database they leave must be the
  // sequential scheduler's, byte for byte. Short drain and flush intervals
  // give many handoffs per run.
  const std::string root = testgen::UniqueTempRoot();
  std::map<std::string, std::vector<uint8_t>> trees[2];
  for (bool threaded : {true, false}) {
    SystemConfig config;
    config.kernel.num_cpus = 4;
    config.mode = ProfilingMode::kDefault;
    config.period_scale = 1.0 / 32;
    config.free_profiling = true;
    config.threaded_collection = threaded;
    config.daemon_drain_interval = 500'000;
    config.daemon_flush_interval = 1'000'000;
    config.db_root = root + (threaded ? "/threaded" : "/sequential");
    WorkloadFactory factory(/*scale=*/0.05);
    Workload workload = factory.DssLike(4);
    System system(config);
    ASSERT_TRUE(workload.Instantiate(&system).ok());
    SystemResult result = system.Run();
    ASSERT_FALSE(result.had_error);
    EXPECT_GE(result.daemon.timed_flushes, 1u) << (threaded ? "threaded" : "sequential");
    trees[threaded ? 0 : 1] = ReadTree(config.db_root);
  }
  std::filesystem::remove_all(root);
  EXPECT_FALSE(trees[0].empty());
  EXPECT_EQ(trees[0], trees[1]);
}

// Table 5's 4-CPU AltaVista run: the daemon memory it leaves behind.
uint64_t AltaVistaDaemonBytes(bool threaded, uint32_t jitter_seed) {
  WorkloadFactory factory(/*scale=*/0.2, /*seed=*/1);
  Workload workload = factory.AltaVistaLike();
  SystemConfig config;
  config.kernel.num_cpus = workload.num_cpus;
  config.mode = ProfilingMode::kDefault;
  config.period_scale = 1.0 / 4;
  config.threaded_collection = threaded;
  config.host_jitter_seed = jitter_seed;
  System system(config);
  EXPECT_TRUE(workload.Instantiate(&system).ok());
  EXPECT_FALSE(system.Run().had_error);
  return system.daemon()->MemoryUsageBytes();
}

TEST(DaemonIngest, ThreadedAndSequentialReportEqualMemoryUsage) {
  // Table 5's daemon-memory column must not depend on the order in which
  // the drain thread happened to receive buffers, so every threaded
  // interleaving reports what the sequential scheduler reports.
  uint64_t sequential = AltaVistaDaemonBytes(/*threaded=*/false, 0);
  EXPECT_GT(sequential, 0u);
  for (uint32_t jitter : {0u, 7u, 1234u}) {
    EXPECT_EQ(AltaVistaDaemonBytes(/*threaded=*/true, jitter), sequential)
        << "threaded run, jitter seed " << jitter;
  }
}

}  // namespace
}  // namespace dcpi
