#include "hostbench/ledger.h"

#include <cstdio>

namespace hostbench {
namespace {

// Per-thread view of the active ledger: a small thread number and the
// stack of spans this thread has open.
struct ThreadState {
  uint64_t ledger = 0;  // Ledger::id_ of the ledger this state belongs to
  uint32_t thread = 0;
  std::vector<int> open;
};

thread_local ThreadState tls;
std::atomic<uint64_t> next_ledger_id{1};

std::string LayerOf(const std::string& name) {
  size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

Ledger::Ledger() : id_(next_ledger_id.fetch_add(1)), epoch_(Clock::now()) {}

int64_t Ledger::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
      .count();
}

void Ledger::AttachThread() {
  if (tls.ledger == id_) return;
  tls.ledger = id_;
  tls.thread = next_thread_.fetch_add(1, std::memory_order_relaxed);
  tls.open.clear();
}

int Ledger::ParentForNewSpan() const {
  return tls.open.empty() ? root_.load(std::memory_order_relaxed) : tls.open.back();
}

int Ledger::Begin(const char* name) {
  AttachThread();
  Span span;
  span.name = name;
  span.parent = ParentForNewSpan();
  span.thread = tls.thread;
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    span.start_ns = NowNs();
    spans_.push_back(span);
  }
  tls.open.push_back(id);
  return id;
}

void Ledger::End(int id, uint64_t ops) {
  int64_t now = NowNs();
  if (!tls.open.empty() && tls.open.back() == id) tls.open.pop_back();
  // A closed root no longer adopts spans from other threads.
  int root = id;
  root_.compare_exchange_strong(root, -1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = now;
  spans_[id].ops = ops;
}

void Ledger::AddAggregate(const char* name, int64_t busy_ns, uint64_t ops) {
  if (ops == 0) return;
  AttachThread();
  Span span;
  span.name = name;
  span.parent = ParentForNewSpan();
  span.thread = tls.thread;
  span.ops = ops;
  std::lock_guard<std::mutex> lock(mu_);
  span.end_ns = NowNs();
  span.start_ns = span.end_ns - busy_ns;
  spans_.push_back(span);
}

std::map<std::string, Ledger::NameTotals> Ledger::TotalsByName() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && spans_[s.parent].thread == s.thread) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, NameTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    NameTotals& t = totals[s.name];
    int64_t dur = s.end_ns - s.start_ns;
    ++t.count;
    t.ops += s.ops;
    t.total_ms += static_cast<double>(dur) / 1e6;
    t.self_ms += static_cast<double>(dur - child_ns[i]) / 1e6;
  }
  return totals;
}

std::map<std::string, double> Ledger::SelfMsByLayer() const {
  std::map<std::string, double> layers;
  for (const auto& [name, t] : TotalsByName()) layers[LayerOf(name)] += t.self_ms;
  return layers;
}

bool Ledger::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"layers_self_ms\": {");
  const char* sep = "";
  for (const auto& [layer, ms] : SelfMsByLayer()) {
    std::fprintf(f, "%s\n    \"%s\": %.6f", sep, layer.c_str(), ms);
    sep = ",";
  }
  std::fprintf(f, "\n  },\n  \"names\": {");
  sep = "";
  for (const auto& [name, t] : TotalsByName()) {
    std::fprintf(f,
                 "%s\n    \"%s\": {\"spans\": %llu, \"ops\": %llu, \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}",
                 sep, name.c_str(), static_cast<unsigned long long>(t.count),
                 static_cast<unsigned long long>(t.ops), t.total_ms, t.self_ms);
    sep = ",";
  }
  std::fprintf(f, "\n  },\n  \"spans\": [");
  sep = "";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n    {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, \"thread\": %u, "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"ops\": %llu}",
                 sep, i, s.name, s.parent, s.thread, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), static_cast<unsigned long long>(s.ops));
    sep = ",";
  }
  std::fprintf(f, "\n  ]\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace hostbench
