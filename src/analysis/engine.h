// Parallel whole-epoch analysis engine with a content-addressed result
// cache.
//
// The offline tools (dcpicalc, dcpicheck, dcpistats) analyze every
// (image, procedure) pair of an epoch; the pairs are independent, so the
// engine fans them across a work-stealing ThreadPool and collects results
// into index-addressed slots. The reduction order is fixed by the input
// order (images in the order given, procedures in symbol-table order), so
// tool output is byte-identical regardless of --jobs.
//
// The cache is content-addressed: an entry's identity is
//   (CRC32 of the serialized image, CRC32 over the serialized profile set,
//    CRC32 fingerprint of the AnalysisConfig, procedure name/start/end),
// so any change to the inputs or tuning produces a different key and a
// clean miss — there is no invalidation protocol. Entries live as one file
// per procedure under `EngineOptions::cache_dir`, carry the full key plus a
// CRC32 trailer, and are ignored (recomputed and rewritten) when corrupt.

#ifndef SRC_ANALYSIS_ENGINE_H_
#define SRC_ANALYSIS_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/support/thread_pool.h"

namespace dcpi {

class ProfileDatabase;

// One image of an epoch together with its per-event profiles. `cycles` is
// required for analysis (procedures of an input without it get an error
// result); the event profiles may be null, with the usual pessimistic
// effect on culprit pruning. The profile pointers must outlive the engine
// calls; they are not owned.
struct AnalysisInput {
  std::shared_ptr<const ExecutableImage> image;
  const ImageProfile* cycles = nullptr;
  const ImageProfile* imiss = nullptr;
  const ImageProfile* dmiss = nullptr;
  const ImageProfile* branchmp = nullptr;
  const ImageProfile* dtbmiss = nullptr;
};

// The per-procedure analysis callback. Defaults to AnalyzeProcedure;
// dcpicheck and dcpicalc pass AnalyzeProcedureChecked (the engine cannot
// name it directly: src/check links against src/analysis, not vice versa).
// Must be thread-safe for distinct procedures.
using AnalyzeFn = std::function<Result<ProcedureAnalysis>(
    const ExecutableImage&, const ProcedureSymbol&, const ImageProfile&,
    const ImageProfile*, const ImageProfile*, const ImageProfile*,
    const ImageProfile*, const AnalysisConfig&, AnalysisScratch*)>;

struct EngineOptions {
  int jobs = 0;           // worker threads; <1 = hardware concurrency
  std::string cache_dir;  // result-cache directory; empty disables caching
  AnalyzeFn analyze;      // null = AnalyzeProcedure
};

struct ProcedureResult {
  std::string image_name;
  ProcedureSymbol proc;
  Status status;              // per-procedure failure (analysis is empty)
  ProcedureAnalysis analysis; // valid when status.ok()
  bool from_cache = false;
};

struct EpochAnalysis {
  // One entry per (image, procedure) pair, in input order then
  // symbol-table order — identical for every jobs count.
  std::vector<ProcedureResult> procedures;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;  // analyzed fresh (missing or corrupt entry)
};

// ---- Incremental whole-database analysis (continuous operation) ----
//
// A continuous run's database is a sequence of sealed epochs. AnalyzeDatabase
// analyzes each requested epoch independently — through that epoch's own
// result cache (<db>/epoch_N/.cache), so re-analyzing a grown database only
// pays for the new epochs — and merges the per-epoch results into a
// cross-epoch per-procedure summary.

struct DatabaseAnalysisOptions {
  // Epochs to analyze, ascending. Empty: every sealed epoch, or every
  // epoch if none is sealed yet (fresh batch database).
  std::vector<uint32_t> epochs;
  bool use_cache = true;  // per-epoch caches under the database
};

struct EpochAnalysisResult {
  uint32_t epoch = 0;
  bool sealed = false;
  uint64_t cycles_samples = 0;  // CYCLES samples read from this epoch
  // Indices (into AnalyzeDatabase's `images`) of the images that had a
  // CYCLES profile this epoch, in input order; `analysis.procedures` holds
  // exactly these images' procedures, grouped in the same order. An image
  // whose profile files exist but cannot be read is listed too, with the
  // read error as every one of its procedures' status.
  std::vector<size_t> analyzed_images;
  EpochAnalysis analysis;
};

// Per-procedure totals across the analyzed epochs.
struct CrossEpochProcedure {
  std::string image_name;
  ProcedureSymbol proc;
  uint64_t samples = 0;       // CYCLES samples summed over epochs
  double est_cycles = 0.0;    // sum of samples_e * mean_period_e
  uint32_t epochs_present = 0;  // epochs contributing at least one sample
};

struct DatabaseAnalysis {
  std::vector<EpochAnalysisResult> per_epoch;  // ascending epoch order
  // In image input order, then symbol-table order (procedures of images
  // that never carried a CYCLES profile are omitted).
  std::vector<CrossEpochProcedure> merged;
  uint64_t cache_hits = 0;    // totals across epochs
  uint64_t cache_misses = 0;
};

class AnalysisEngine {
 public:
  explicit AnalysisEngine(EngineOptions options = EngineOptions());

  // Analyzes every procedure of every input. Results appear in
  // deterministic order (see EpochAnalysis); per-procedure failures are
  // recorded in ProcedureResult::status, not returned.
  EpochAnalysis AnalyzeAll(const std::vector<AnalysisInput>& inputs,
                           const AnalysisConfig& config);

  // Analyzes a single procedure through the same cache.
  ProcedureResult AnalyzeOne(const AnalysisInput& input,
                             const ProcedureSymbol& proc,
                             const AnalysisConfig& config);

  // Analyzes the requested epochs of `db` (see DatabaseAnalysisOptions for
  // the default set), each through its own per-epoch cache, and merges the
  // results. `EngineOptions::cache_dir` is ignored here; caching is
  // controlled by `opts.use_cache`. Only the given images are analyzed;
  // images without a CYCLES profile in an epoch are skipped for that epoch,
  // and images with an unreadable profile file fail (see
  // EpochAnalysisResult::analyzed_images).
  DatabaseAnalysis AnalyzeDatabase(
      const ProfileDatabase& db,
      const std::vector<std::shared_ptr<const ExecutableImage>>& images,
      const AnalysisConfig& config,
      const DatabaseAnalysisOptions& opts = DatabaseAnalysisOptions());

  int jobs() const { return pool_.num_threads(); }

 private:
  void RunOne(const AnalysisInput& input, const ProcedureSymbol& proc,
              const AnalysisConfig& config, const std::string& cache_dir,
              uint32_t image_crc, uint32_t profiles_crc, uint32_t config_fp,
              AnalysisScratch* scratch, ProcedureResult* out);
  // AnalyzeAll against an explicit cache directory (empty = no cache);
  // AnalyzeDatabase points this at each epoch's own cache in turn.
  EpochAnalysis AnalyzeAllCached(const std::vector<AnalysisInput>& inputs,
                                 const AnalysisConfig& config,
                                 const std::string& cache_dir);

  EngineOptions options_;
  ThreadPool pool_;
};

// ---- Cache-key pieces (exposed for tests and tools) ----

// CRC32 of the canonical image serialization: the image content hash.
uint32_t ImageContentCrc(const ExecutableImage& image);

// Chained CRC32 over the input's profile set (all five event slots, with
// presence markers so "no DMISS profile" differs from an empty one).
uint32_t ProfileSetCrc(const AnalysisInput& input);

// CRC32 over every analysis-affecting AnalysisConfig field (pipeline
// latencies, fill costs, tuning, selfcheck flag, ...).
uint32_t ConfigFingerprint(const AnalysisConfig& config);

// The cache file for a key, under `cache_dir`.
std::string CacheEntryPath(const std::string& cache_dir, uint32_t image_crc,
                           uint32_t profiles_crc, uint32_t config_fp,
                           const ProcedureSymbol& proc);

// ---- Cache-entry payload (exposed for tests) ----
//
// The payload stores everything in a ProcedureAnalysis except the decoded
// instruction words, which are re-decoded from the image on load (they are
// pure functions of the image text, and the key already covers it).
std::vector<uint8_t> SerializeProcedureAnalysis(const ProcedureAnalysis& analysis);
Result<ProcedureAnalysis> DeserializeProcedureAnalysis(const uint8_t* data,
                                                       size_t size,
                                                       const ExecutableImage& image);
inline Result<ProcedureAnalysis> DeserializeProcedureAnalysis(
    const std::vector<uint8_t>& bytes, const ExecutableImage& image) {
  return DeserializeProcedureAnalysis(bytes.data(), bytes.size(), image);
}

}  // namespace dcpi

#endif  // SRC_ANALYSIS_ENGINE_H_
