// In-memory span ledger for the traced benchmark pass.
//
// A span covers one call across a layer boundary: a name ("driver.deliver"),
// a start and end on the steady clock, the span that caused it, and the
// number of operations it stands for (one DeliverSample, or a whole replay
// batch). Parents are tracked per thread; a span opened on a thread with no
// open span (the daemon's drain thread, a per-CPU worker) is parented to
// the ledger's current root span instead.
//
// A layer is the name's prefix before the first '.'. A span's self time is
// its duration minus the durations of its children on the same thread
// (children on other threads run concurrently and do not block it).
// Spans are kept in memory and written out once, at the end of the run.

#ifndef HOSTBENCH_LEDGER_H_
#define HOSTBENCH_LEDGER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace hostbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span {
  const char* name = "";
  int parent = -1;  // index into the ledger's spans, -1 for a root
  uint32_t thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t ops = 1;
};

class Ledger {
 public:
  Ledger();

  // Opens a span on the calling thread and returns its id.
  int Begin(const char* name);
  // Closes span `id` (which must be the calling thread's innermost open
  // span) and records that it covered `ops` operations.
  void End(int id, uint64_t ops = 1);

  // Records `ops` calls that together took `busy_ns` as one span ending now,
  // under the calling thread's innermost open span. For per-call boundaries
  // so hot that a span per call would cost more than the call itself.
  void AddAggregate(const char* name, int64_t busy_ns, uint64_t ops);

  // Spans opened on threads with no open span are parented here until
  // span `id` closes.
  void set_root(int id) { root_.store(id, std::memory_order_relaxed); }

  // The readers below run only after every thread that recorded spans
  // has been joined.
  struct NameTotals {
    uint64_t count = 0;   // spans
    uint64_t ops = 0;     // operations they stood for
    double total_ms = 0;  // summed durations
    double self_ms = 0;   // summed self times
  };
  std::map<std::string, NameTotals> TotalsByName() const;
  std::map<std::string, double> SelfMsByLayer() const;

  // Writes spans plus per-name and per-layer totals as JSON.
  bool WriteJson(const std::string& path) const;

 private:
  int64_t NowNs() const;
  // This thread's number and open-span stack, reset for a new ledger.
  void AttachThread();
  int ParentForNewSpan() const;

  const uint64_t id_;  // unique per ledger, so per-thread state never aliases
  Clock::time_point epoch_;
  std::atomic<int> root_{-1};
  std::atomic<uint32_t> next_thread_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Ledger* ledger, const char* name)
      : ledger_(ledger), id_(ledger == nullptr ? -1 : ledger->Begin(name)) {}
  ~Scope() {
    if (ledger_ != nullptr) ledger_->End(id_, ops_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_ops(uint64_t ops) { ops_ = ops; }
  int id() const { return id_; }

 private:
  Ledger* ledger_;
  int id_;
  uint64_t ops_ = 1;
};

}  // namespace hostbench

#endif  // HOSTBENCH_LEDGER_H_
