// Crash-safety and corruption tests for the profile database (Section 4.3.3
// durability): fault injection at every point of the atomic write protocol,
// CRC-based corruption quarantine on reopen, epoch-numbering recovery, the
// daemon's retry-then-report flush path, and adversarial deserialization
// inputs (truncation at every byte boundary, trailing garbage, bad event
// ids, varint overflow).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "src/daemon/daemon.h"
#include "src/profiledb/database.h"
#include "src/profiledb/fleet.h"
#include "src/support/binary_io.h"
#include "src/support/crc32.h"
#include "tests/testgen.h"

namespace dcpi {
namespace {

class ProfileDbCrashTest : public ::testing::Test {
 protected:
  void SetUp() override { root_ = testgen::UniqueTempRoot(); }
  void TearDown() override {
    SetFaultInjectingEnv(nullptr);
    std::filesystem::remove_all(root_);
  }
  std::string root_;
};

ImageProfile MakeProfile(const std::string& name, uint64_t samples_at_zero) {
  ImageProfile profile(name, EventType::kCycles, 62000.0);
  profile.AddSamples(0, samples_at_zero);
  return profile;
}

uint64_t SamplesOrZero(const ProfileDatabase& db, uint32_t epoch,
                       const std::string& image) {
  Result<ImageProfile> profile = db.ReadProfile(epoch, image, EventType::kCycles);
  return profile.ok() ? profile.value().SamplesAt(0) : 0;
}

// The acceptance property: for every injected fault point, reopening the
// database succeeds, quarantines at most the in-flight file, and each
// image's total is either its pre-flush or its post-flush value — never a
// partial or corrupt state.
TEST_F(ProfileDbCrashTest, EveryFaultPointLeavesEpochConsistent) {
  const WriteFault kFaults[] = {WriteFault::kFailWrite, WriteFault::kTruncatedTemp,
                                WriteFault::kCrashBeforeRename};
  for (WriteFault fault : kFaults) {
    for (int nth = 1; nth <= 2; ++nth) {
      SCOPED_TRACE("fault=" + std::to_string(static_cast<int>(fault)) +
                   " nth=" + std::to_string(nth));
      std::filesystem::remove_all(root_);
      {
        ProfileDatabase db(root_);
        // Flush 1: the pre-flush state (a=5, b=7 in epoch 0).
        ASSERT_TRUE(db.ReplaceProfile(MakeProfile("a", 5)).ok());
        ASSERT_TRUE(db.ReplaceProfile(MakeProfile("b", 7)).ok());
        // Flush 2 writes the epoch's grown cumulative profiles (a=8,
        // b=11), as the daemon does, with a fault injected at write `nth`:
        // at most one of the two writes fails, and the failure is
        // reported, not swallowed.
        FaultInjectingEnv env;
        env.FailNthWrite(nth, fault);
        SetFaultInjectingEnv(&env);
        Status wrote_a = db.ReplaceProfile(MakeProfile("a", 8));
        Status wrote_b = db.ReplaceProfile(MakeProfile("b", 11));
        SetFaultInjectingEnv(nullptr);
        EXPECT_NE(wrote_a.ok(), nth == 1);
        EXPECT_NE(wrote_b.ok(), nth == 2);
      }
      // Simulated crash: reopen from disk alone.
      ProfileDatabase db(root_);
      const ScanReport& report = db.scan_report();
      EXPECT_LE(report.files_quarantined, 1u);
      EXPECT_EQ(report.next_epoch, 1u);
      uint64_t a = SamplesOrZero(db, 0, "a");
      uint64_t b = SamplesOrZero(db, 0, "b");
      EXPECT_TRUE(a == 5 || a == 8) << "a=" << a;
      EXPECT_TRUE(b == 7 || b == 11) << "b=" << b;
      // The write that was not faulted must have committed.
      if (nth == 1) {
        EXPECT_EQ(b, 11u);
      } else {
        EXPECT_EQ(a, 8u);
      }
    }
  }
}

TEST_F(ProfileDbCrashTest, CorruptFileIsQuarantinedOnReopen) {
  std::string path;
  {
    ProfileDatabase db(root_);
    ASSERT_TRUE(db.ReplaceProfile(MakeProfile("a", 5)).ok());
    ASSERT_TRUE(db.ReplaceProfile(MakeProfile("b", 7)).ok());
    ASSERT_TRUE(db.ReplaceProfile(MakeProfile("c", 9)).ok());
    path = db.root() + "/epoch_0/" +
           ProfileDatabase::ProfileFileName("b", EventType::kCycles);
  }
  // Flip a byte mid-file (bit rot / torn sector): the CRC must catch it.
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFile(path, &bytes).ok());
  bytes[bytes.size() / 2] ^= 0xff;
  ASSERT_TRUE(WriteFile(path, bytes).ok());

  ProfileDatabase db(root_);
  const ScanReport& report = db.scan_report();
  EXPECT_EQ(report.files_checked, 3u);
  EXPECT_EQ(report.files_recovered, 2u);
  EXPECT_EQ(report.files_quarantined, 1u);
  EXPECT_FALSE(db.ReadProfile(0, "b", EventType::kCycles).ok());
  EXPECT_EQ(SamplesOrZero(db, 0, "a"), 5u);
  EXPECT_EQ(SamplesOrZero(db, 0, "c"), 9u);
  // The corrupt file is preserved for post-mortem, not deleted.
  EXPECT_TRUE(std::filesystem::exists(
      root_ + "/epoch_0/.quarantine/" +
      ProfileDatabase::ProfileFileName("b", EventType::kCycles)));
  // Listings no longer include it.
  Result<std::vector<std::string>> files = db.ListProfiles(0);
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(files.value().size(), 2u);
}

TEST_F(ProfileDbCrashTest, TruncatedOnDiskFileIsQuarantined) {
  std::string path;
  {
    ProfileDatabase db(root_);
    ASSERT_TRUE(db.ReplaceProfile(MakeProfile("a", 5)).ok());
    path = db.root() + "/epoch_0/" +
           ProfileDatabase::ProfileFileName("a", EventType::kCycles);
  }
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFile(path, &bytes).ok());
  bytes.resize(bytes.size() / 2);
  ASSERT_TRUE(WriteFile(path, bytes).ok());

  ProfileDatabase db(root_);
  EXPECT_EQ(db.scan_report().files_quarantined, 1u);
  EXPECT_EQ(db.scan_report().files_recovered, 0u);
}

// Regression for the epoch-numbering bug: reopening a populated root used
// to restart at epoch 0 and silently merge into the previous run.
TEST_F(ProfileDbCrashTest, ReopenResumesAtNextEpoch) {
  {
    ProfileDatabase db(root_);
    ASSERT_TRUE(db.ReplaceProfile(MakeProfile("a", 5)).ok());
    ASSERT_TRUE(db.NewEpoch().ok());
    ASSERT_TRUE(db.ReplaceProfile(MakeProfile("a", 7)).ok());
  }
  ProfileDatabase db(root_);
  EXPECT_EQ(db.scan_report().epochs_found, 2u);
  EXPECT_EQ(db.scan_report().next_epoch, 2u);
  ASSERT_TRUE(db.ReplaceProfile(MakeProfile("a", 11)).ok());
  EXPECT_EQ(db.current_epoch(), 2u);
  // The previous run's epochs are untouched: no cross-run merge.
  EXPECT_EQ(SamplesOrZero(db, 0, "a"), 5u);
  EXPECT_EQ(SamplesOrZero(db, 1, "a"), 7u);
  EXPECT_EQ(SamplesOrZero(db, 2, "a"), 11u);
  EXPECT_EQ(db.NewEpoch().value(), 3u);
}

TEST_F(ProfileDbCrashTest, InterruptedFlushDoesNotAdvanceEpochNumbering) {
  {
    ProfileDatabase db(root_);
    FaultInjectingEnv env;
    env.FailNthWrite(1, WriteFault::kTruncatedTemp);
    SetFaultInjectingEnv(&env);
    EXPECT_FALSE(db.ReplaceProfile(MakeProfile("a", 5)).ok());
    SetFaultInjectingEnv(nullptr);
  }
  // Only a tmp file exists in epoch 0; it is quarantined and the epoch dir
  // still counts, so the next run writes to epoch 1.
  ProfileDatabase db(root_);
  EXPECT_EQ(db.scan_report().files_quarantined, 1u);
  EXPECT_EQ(db.scan_report().next_epoch, 1u);
}

// ---- Daemon flush error plumbing ----

// Feeds the daemon samples that resolve to the synthetic "unknown" image
// (no load maps needed), one profile per event type.
void FeedUnknownSamples(Daemon* daemon, EventType event, uint64_t count) {
  std::vector<SampleRecord> records;
  records.push_back({{1, 0x1000, event}, count});
  daemon->ProcessBuffer(0, records);
}

TEST_F(ProfileDbCrashTest, DaemonFlushRetriesFailedWriteOnce) {
  ProfileDatabase db(root_);
  Daemon daemon(nullptr, &db);
  FeedUnknownSamples(&daemon, EventType::kCycles, 10);

  FaultInjectingEnv env;
  env.FailNthWrite(1, WriteFault::kFailWrite);  // first attempt fails, retry succeeds
  SetFaultInjectingEnv(&env);
  Status flushed = daemon.FlushToDatabase();
  SetFaultInjectingEnv(nullptr);

  EXPECT_TRUE(flushed.ok()) << flushed.ToString();
  EXPECT_EQ(daemon.stats().db_write_retries, 1u);
  EXPECT_EQ(daemon.stats().db_write_failures, 0u);
  EXPECT_EQ(SamplesOrZero(db, 0, "unknown"), 10u);
}

TEST_F(ProfileDbCrashTest, DaemonFlushReportsPersistentFailureAndContinues) {
  ProfileDatabase db(root_);
  Daemon daemon(nullptr, &db);
  FeedUnknownSamples(&daemon, EventType::kCycles, 10);
  FeedUnknownSamples(&daemon, EventType::kImiss, 20);

  FaultInjectingEnv env;
  // Writes 1 and 2 are the first profile's attempt + retry: both fail. The
  // second profile (write 3) must still be flushed.
  env.FailNthWrite(1, WriteFault::kFailWrite, /*count=*/2);
  SetFaultInjectingEnv(&env);
  Status flushed = daemon.FlushToDatabase();
  SetFaultInjectingEnv(nullptr);

  EXPECT_FALSE(flushed.ok());
  EXPECT_NE(flushed.message().find("1 profile write(s) failed"), std::string::npos)
      << flushed.ToString();
  EXPECT_EQ(daemon.stats().db_write_failures, 1u);
  EXPECT_EQ(daemon.stats().db_merges, 1u);
  Result<ImageProfile> imiss = db.ReadProfile(0, "unknown", EventType::kImiss);
  ASSERT_TRUE(imiss.ok());
  EXPECT_EQ(imiss.value().SamplesAt(0), 20u);
}

TEST_F(ProfileDbCrashTest, ReadOnlyScanRescansWhenEpochSealsMidScan) {
  // Race regression: a concurrent writer's final flush and .sealed marker
  // land in the window between the read-only scan's directory listing and
  // its per-file reads. A single-pass scan would report the epoch unsealed
  // yet miss the file the seal guarantees is final; the scan must detect
  // the unsealed-to-sealed transition and rescan the (now immutable) epoch.
  {
    ProfileDatabase db(root_);
    ASSERT_TRUE(db.NewEpoch().ok());
    ASSERT_TRUE(db.ReplaceProfile(MakeProfile("early", 3)).ok());
    // not sealed: the writer is still mid-epoch
  }
  FaultInjectingEnv env;
  bool fired = false;
  env.SetEpochScanHook([&](uint32_t epoch) {
    if (fired || epoch != 0) return;  // fire once; the rescan must not loop
    fired = true;
    const std::string epoch_dir = root_ + "/epoch_0";
    ASSERT_TRUE(WriteFileAtomic(
                    epoch_dir + "/" +
                        ProfileDatabase::ProfileFileName("late", EventType::kCycles),
                    SerializeProfile(MakeProfile("late", 5)))
                    .ok());
    ASSERT_TRUE(WriteFileAtomic(epoch_dir + "/.sealed", {}).ok());
  });
  SetFaultInjectingEnv(&env);
  ProfileDatabase reader(root_, DbOpenMode::kReadOnly);
  SetFaultInjectingEnv(nullptr);
  ASSERT_TRUE(fired);

  // The surviving pass saw the sealed epoch with both files; the aborted
  // first pass contributes nothing to the counters.
  const ScanReport& report = reader.scan_report();
  ASSERT_EQ(report.epochs.size(), 1u);
  EXPECT_TRUE(report.epochs[0].sealed);
  EXPECT_EQ(report.epochs[0].files, 2u);
  EXPECT_EQ(report.epochs[0].samples, 8u);
  EXPECT_EQ(report.files_checked, 2u);
  EXPECT_EQ(report.files_recovered, 2u);
  EXPECT_EQ(SamplesOrZero(reader, 0, "early"), 3u);
  EXPECT_EQ(SamplesOrZero(reader, 0, "late"), 5u);
}

TEST_F(ProfileDbCrashTest, ReadWriteScanDoesNotRescan) {
  // The recovery scan on a read-write open is the writer itself: the hook
  // fires exactly once per epoch and no second pass runs (a rescan would
  // double-quarantine).
  {
    ProfileDatabase db(root_);
    ASSERT_TRUE(db.NewEpoch().ok());
    ASSERT_TRUE(db.ReplaceProfile(MakeProfile("app", 2)).ok());
    ASSERT_TRUE(db.SealCurrentEpoch().ok());
  }
  FaultInjectingEnv env;
  int hook_calls = 0;
  env.SetEpochScanHook([&](uint32_t) { ++hook_calls; });
  SetFaultInjectingEnv(&env);
  ProfileDatabase reopened(root_);
  SetFaultInjectingEnv(nullptr);
  EXPECT_EQ(hook_calls, 1);
  EXPECT_EQ(reopened.scan_report().files_checked, 1u);
}

TEST_F(ProfileDbCrashTest, CorruptEpochFailsReadMergedInReadOnlyDb) {
  // A read-only open never quarantines, so a corrupt file in a selected
  // epoch reaches the reader: the fold must fail and name the file, not
  // return the other epochs' samples as if the image had been idle.
  {
    ProfileDatabase db(root_);
    ASSERT_TRUE(db.ReplaceProfile(MakeProfile("a", 5)).ok());
    ASSERT_TRUE(db.NewEpoch().ok());
    ASSERT_TRUE(db.ReplaceProfile(MakeProfile("a", 7)).ok());
  }
  const std::string path =
      root_ + "/epoch_1/" + ProfileDatabase::ProfileFileName("a", EventType::kCycles);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFile(path, &bytes).ok());
  bytes[bytes.size() / 2] ^= 0xff;
  ASSERT_TRUE(WriteFile(path, bytes).ok());

  ProfileDatabase db(root_, DbOpenMode::kReadOnly);
  Result<ImageProfile> merged = db.ReadMerged({0, 1}, "a", EventType::kCycles);
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kIoError);
  EXPECT_NE(merged.status().message().find(path), std::string::npos)
      << merged.status().ToString();
  Result<ImageProfile> intact = db.ReadMerged({0}, "a", EventType::kCycles);
  ASSERT_TRUE(intact.ok()) << intact.status().ToString();
  EXPECT_EQ(intact.value().SamplesAt(0), 5u);
}

// ---- Version-2 compatibility ----

// Nothing writes version 2 any more. A v2 file is the v3 encoding with
// version byte 2 and no CRC32 trailer.
std::vector<uint8_t> V2Bytes(const ImageProfile& profile) {
  std::vector<uint8_t> bytes = SerializeProfile(profile);
  bytes.resize(bytes.size() - kProfileCrcBytes);
  bytes[4] = 2;
  return bytes;
}

TEST(V2Format, DerivedBytesMatchAFileTheV2WriterProduced) {
  // A fixture written by the removed v2 encoder: image "a/b", CYCLES,
  // period 1000, 5 samples at offset 0 and 2 at offset 8.
  const std::vector<uint8_t> kV2Fixture = {
      0x49, 0x50, 0x43, 0x44, 0x02, 0x03, 0x61, 0x2f, 0x62, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x40, 0x8f, 0x40, 0x02, 0x00, 0x05, 0x08, 0x02};
  ImageProfile profile("a/b", EventType::kCycles, 1000.0);
  profile.AddSamples(0, 5);
  profile.AddSamples(8, 2);
  EXPECT_EQ(V2Bytes(profile), kV2Fixture);
  Result<ImageProfile> read = DeserializeProfile(kV2Fixture);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(SerializeProfile(read.value()), SerializeProfile(profile));
}

TEST_F(ProfileDbCrashTest, V2FilesStayReadable) {
  // A version-2 file under its (escaped) name is recovered by the scan
  // and read like any other.
  ImageProfile old_profile("a/b", EventType::kCycles, 1000.0);
  old_profile.AddSamples(0, 5);
  old_profile.AddSamples(8, 2);
  std::filesystem::create_directories(root_ + "/epoch_0");
  ASSERT_TRUE(WriteFile(root_ + "/epoch_0/" +
                            ProfileDatabase::ProfileFileName("a/b", EventType::kCycles),
                        V2Bytes(old_profile))
                  .ok());

  ProfileDatabase db(root_);
  EXPECT_EQ(db.scan_report().files_recovered, 1u);
  EXPECT_EQ(db.scan_report().files_quarantined, 0u);
  Result<ImageProfile> read = db.ReadProfile(0, "a/b", EventType::kCycles);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().SamplesAt(0), 5u);
  EXPECT_EQ(read.value().SamplesAt(8), 2u);
}

// ---- Adversarial deserialization ----

ImageProfile SampleRichProfile() {
  ImageProfile profile("libadversarial.so", EventType::kImiss, 4096.0);
  for (uint64_t off = 0; off < 64; off += 4) profile.AddSamples(off, 100 + off);
  return profile;
}

TEST(DeserializeAdversarial, TruncationAtEveryByteBoundaryIsAnError) {
  std::vector<uint8_t> bytes = SerializeProfile(SampleRichProfile());
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    Result<ImageProfile> result = DeserializeProfile(prefix);
    EXPECT_FALSE(result.ok()) << "prefix of " << len << " bytes parsed";
  }
  EXPECT_TRUE(DeserializeProfile(bytes).ok());
}

TEST(DeserializeAdversarial, LegacyTruncationIsAnErrorNotAPartialProfile) {
  // v2 has no checksum, so truncation must be caught structurally; a
  // truncated file must never come back as a success with fewer counts.
  std::vector<uint8_t> bytes = V2Bytes(SampleRichProfile());
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(DeserializeProfile(prefix).ok()) << "prefix of " << len;
  }
  EXPECT_TRUE(DeserializeProfile(bytes).ok());
}

TEST(DeserializeAdversarial, TrailingGarbageIsAnError) {
  for (std::vector<uint8_t> bytes :
       {SerializeProfile(SampleRichProfile()),
        V2Bytes(SampleRichProfile()),
        SerializeProfileFixedWidth(SampleRichProfile())}) {
    bytes.push_back(0x00);
    EXPECT_FALSE(DeserializeProfile(bytes).ok());
  }
}

TEST(DeserializeAdversarial, BadEventIdIsAnError) {
  ByteWriter writer;
  writer.PutU32(0x44435049);
  writer.PutU8(2);
  writer.PutString("img");
  writer.PutU8(250);  // not a valid EventType
  writer.PutU64(0);
  writer.PutVarint(0);
  EXPECT_FALSE(DeserializeProfile(writer.bytes()).ok());
}

TEST(DeserializeAdversarial, VarintOverflowIsAnError) {
  // A 10-byte varint whose final byte carries bits beyond bit 63, in the
  // entry-count position of a v2 profile.
  ByteWriter writer;
  writer.PutU32(0x44435049);
  writer.PutU8(2);
  writer.PutString("img");
  writer.PutU8(0);
  writer.PutU64(0);
  for (int i = 0; i < 9; ++i) writer.PutU8(0xff);
  writer.PutU8(0x7f);  // bits 63..69 set: overflow
  EXPECT_FALSE(DeserializeProfile(writer.bytes()).ok());
}

TEST(DeserializeAdversarial, InflatedEntryCountIsRejectedWithoutAllocating) {
  // A garbage entry count far beyond what the file could hold must fail
  // fast instead of looping or resizing gigabytes.
  ByteWriter writer;
  writer.PutU32(0x44435049);
  writer.PutU8(2);
  writer.PutString("img");
  writer.PutU8(0);
  writer.PutU64(0);
  writer.PutVarint(uint64_t{1} << 60);
  EXPECT_FALSE(DeserializeProfile(writer.bytes()).ok());

  ByteWriter fixed;
  fixed.PutU32(0x44435049);
  fixed.PutU8(1);
  fixed.PutString("img");
  fixed.PutU8(0);
  fixed.PutU64(0);
  fixed.PutU64(uint64_t{1} << 60);
  EXPECT_FALSE(DeserializeProfile(fixed.bytes()).ok());
}

TEST(DeserializeAdversarial, EmptyAndTinyInputsAreErrors) {
  EXPECT_FALSE(DeserializeProfile({}).ok());
  EXPECT_FALSE(DeserializeProfile({0x49}).ok());
  EXPECT_FALSE(DeserializeProfile({0x49, 0x50, 0x43, 0x44}).ok());  // magic only
}

// ---- Version-4 memory sections ----

// A profile with both axes populated: PC samples plus a data-line axis
// with every counter kind exercised (all levels, TLB misses, latencies
// across several histogram buckets, multiple CPUs and 8-byte slots).
ImageProfile MemRichProfile() {
  ImageProfile profile = SampleRichProfile();
  MemoryProfile* mem = profile.mutable_mem();
  mem->AddAccess(0x10000, MemLevel::kL1, 2, false, 0);
  mem->AddAccess(0x10008, MemLevel::kL1, 3, false, 1);     // same line, new slot
  mem->AddAccess(0x10038, MemLevel::kBoard, 40, true, 2);  // same line again
  mem->AddAccess(0x20040, MemLevel::kDram, 180, true, 0);
  mem->AddAccess(0x20080, MemLevel::kL2, 21, false, 3);
  mem->AddAccess(0xfeed0040, MemLevel::kDram, 65000, true, 31);
  return profile;
}

TEST(MemorySection, RoundTripIsExact) {
  ImageProfile original = MemRichProfile();
  std::vector<uint8_t> bytes = SerializeProfile(original);
  EXPECT_EQ(bytes[4], 4) << "memory axis must serialize as version 4";
  Result<ImageProfile> back = DeserializeProfile(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // Re-serialization is the equality oracle: both axes are ordered maps,
  // so identical content means identical bytes.
  EXPECT_EQ(SerializeProfile(back.value()), bytes);
  const MemoryProfile& mem = back.value().mem();
  ASSERT_EQ(mem.num_lines(), 4u);
  EXPECT_EQ(mem.total_accesses(), 6u);
  const MemLineCounters& first = mem.lines().at(0x10000);
  EXPECT_EQ(first.level_counts[static_cast<int>(MemLevel::kL1)], 2u);
  EXPECT_EQ(first.level_counts[static_cast<int>(MemLevel::kBoard)], 1u);
  EXPECT_EQ(first.tlb_misses, 1u);
  EXPECT_EQ(first.latency_sum, 45u);
  EXPECT_EQ(first.cpu_mask, 0b111u);
  EXPECT_EQ(first.offset_mask, (1u << 0) | (1u << 1) | (1u << 7));
}

TEST(MemorySection, EmptyMemoryAxisStaysByteExactVersion3) {
  // --mem-fraction 0 must leave databases indistinguishable from pre-v4
  // builds: a profile that never collected a wide record serializes as
  // version 3, byte for byte.
  std::vector<uint8_t> bytes = SerializeProfile(SampleRichProfile());
  EXPECT_EQ(bytes[4], 3);
  ImageProfile cleared = MemRichProfile();
  cleared.ClearCounts();
  for (uint64_t off = 0; off < 64; off += 4) cleared.AddSamples(off, 100 + off);
  EXPECT_EQ(SerializeProfile(cleared), bytes);
}

TEST(MemorySection, TruncationAtEveryByteBoundaryIsAnError) {
  std::vector<uint8_t> bytes = SerializeProfile(MemRichProfile());
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    EXPECT_FALSE(DeserializeProfile(prefix).ok()) << "prefix of " << len;
  }
  EXPECT_TRUE(DeserializeProfile(bytes).ok());
}

TEST(MemorySection, EveryOneBitCorruptionIsAnError) {
  // The CRC trails the whole record, so no single-bit flip anywhere — in
  // the header, either axis, or the checksum itself — may parse.
  std::vector<uint8_t> bytes = SerializeProfile(MemRichProfile());
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[i] ^= 0x01;
    EXPECT_FALSE(DeserializeProfile(corrupt).ok()) << "flip at byte " << i;
  }
}

TEST(MemorySection, CrossVersionMergeCarriesTheMemoryAxis) {
  // v3 (no memory axis) merged into v4: the PC counts fold, the memory
  // axis passes through untouched — and the merge serializes as v4.
  Result<ImageProfile> v4 = DeserializeProfile(SerializeProfile(MemRichProfile()));
  ASSERT_TRUE(v4.ok());
  Result<ImageProfile> v3 = DeserializeProfile(SerializeProfile(SampleRichProfile()));
  ASSERT_TRUE(v3.ok());
  ImageProfile merged = v4.value();
  merged.Merge(v3.value());
  EXPECT_EQ(merged.SamplesAt(0), 200u);
  EXPECT_EQ(merged.mem().total_accesses(), 6u);
  EXPECT_EQ(SerializeProfile(merged)[4], 4);
  // The mirror-image merge (memory axis arriving from `other`) matches.
  ImageProfile merged2 = v3.value();
  merged2.Merge(v4.value());
  EXPECT_EQ(SerializeProfile(merged2), SerializeProfile(merged));
}

TEST(MemorySection, FleetMergesMixedVersionShards) {
  // host_0 collected without memory sampling (v3 on disk), host_1 with it
  // (v4): the fleet-wide merge-on-read carries host_1's memory axis and
  // sums both hosts' PC samples.
  const std::string root = testgen::UniqueTempRoot();
  auto write_shard = [&](uint32_t id, const ImageProfile& profile) {
    ProfileDatabase db(root + "/host_" + std::to_string(id));
    ASSERT_TRUE(db.NewEpoch().ok());
    ASSERT_TRUE(db.ReplaceProfile(profile).ok());
    ASSERT_TRUE(db.SealCurrentEpoch().ok());
  };
  write_shard(0, SampleRichProfile());
  write_shard(1, MemRichProfile());
  FleetView view(root);
  ASSERT_EQ(view.num_hosts(), 2u);
  Result<ImageProfile> merged =
      view.ReadProfile({0}, "libadversarial.so", EventType::kImiss);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(merged.value().SamplesAt(0), 200u);
  EXPECT_EQ(merged.value().mem().total_accesses(), 6u);
  EXPECT_EQ(merged.value().mem().num_lines(), 4u);
  std::filesystem::remove_all(root);
}

}  // namespace
}  // namespace dcpi
