#include "src/driver/driver.h"

namespace dcpi {

DcpiDriver::DcpiDriver(uint32_t num_cpus, const DriverConfig& config) : config_(config) {
  per_cpu_ = std::vector<PerCpu>(num_cpus);
  for (PerCpu& cpu : per_cpu_) {
    cpu.table = std::make_unique<SampleHashTable>(config.hash);
    for (OverflowBuffer& buffer : cpu.buffers) {
      buffer.records.resize(config.overflow_entries);
    }
    // Buffer 0 starts owned by the producer; buffer 1 is the free spare.
    cpu.buffers[0].state.store(kProducer, std::memory_order_relaxed);
    cpu.buffers[1].state.store(kFree, std::memory_order_relaxed);
  }
}

void DcpiDriver::PublishActive(uint32_t cpu_id, PerCpu* cpu) {
  OverflowBuffer& full = cpu->buffers[cpu->active_buffer];
  ++cpu->counts.overflow_buffer_flushes;
  // The records and count are visible to any acquire-loader of kPublished.
  full.state.store(kPublished, std::memory_order_release);

  if (drain_mode_ == DrainMode::kInline) {
    // No drain thread: consume the just-published buffer synchronously,
    // which reproduces the original synchronous-callback behaviour.
    DrainCpuPublished(cpu_id);
  } else {
    WakeDrainer();
  }
  OverflowBuffer& spare = cpu->buffers[cpu->active_buffer ^ 1];
  bool waited = false;
  for (uint8_t state = spare.state.load(std::memory_order_acquire); state != kFree;
       state = spare.state.load(std::memory_order_acquire)) {
    if (drain_mode_ == DrainMode::kInline) {
      DrainCpuPublished(cpu_id);
    } else {
      // The daemon has fallen behind. The paper would drop records; we
      // apply host-level backpressure instead so no sample is lost and the
      // simulated results stay interleaving-independent. The producer
      // sleeps until the drainer's kFree store notifies this buffer; the
      // wait costs host time only, never simulated cycles.
      waited = true;
      spare.state.wait(state, std::memory_order_acquire);
    }
  }
  if (waited) ++cpu->counts.publish_waits;
  spare.state.store(kProducer, std::memory_order_relaxed);
  cpu->active_buffer ^= 1;
}

void DcpiDriver::AppendOverflow(uint32_t cpu_id, PerCpu* cpu, const OverflowRecord& record) {
  OverflowBuffer& active = cpu->buffers[cpu->active_buffer];
  active.records[active.count++] = record;
  if (active.count >= config_.overflow_entries) PublishActive(cpu_id, cpu);
}

void DcpiDriver::ServiceFlush(uint32_t cpu_id, PerCpu* cpu) {
  cpu->table->Flush([&](const SampleRecord& record) {
    AppendOverflow(cpu_id, cpu, OverflowRecord::Narrow(record));
  });
  OverflowBuffer& active = cpu->buffers[cpu->active_buffer];
  if (active.count > 0) PublishActive(cpu_id, cpu);
}

uint64_t DcpiDriver::MaybeServiceFlush(uint32_t cpu_id, PerCpu* cpu) {
  if (!cpu->flush_requested.load(std::memory_order_relaxed)) return 0;
  // The IPI-modeled flush: the daemon flagged this CPU; the handler does
  // the drain itself, so the hash table and buffers still have a single
  // writer.
  cpu->flush_requested.store(false, std::memory_order_relaxed);
  ServiceFlush(cpu_id, cpu);
  ++cpu->counts.flush_requests_serviced;
  return config_.ipi_flush_cycles;
}

uint64_t DcpiDriver::DeliverSample(uint32_t cpu_id, uint32_t pid, uint64_t pc,
                                   EventType event) {
  PerCpu& cpu = per_cpu_[cpu_id];
  uint64_t cost = MaybeServiceFlush(cpu_id, &cpu);
  SampleKey key{pid, pc, event};
  if (config_.record_trace && cpu.trace.size() < config_.max_trace_samples) {
    cpu.trace.push_back(key);
  }
  SampleHashTable::RecordResult result = cpu.table->Record(key);
  // A saturated hit evicts its aggregate, so it pays the miss body too.
  bool hit_path = result.hit && !result.evicted;
  cost += config_.intr_setup_cycles +
          (hit_path ? config_.hit_body_cycles : config_.miss_body_cycles);
  if (result.evicted) {
    AppendOverflow(cpu_id, &cpu, OverflowRecord::Narrow(result.victim));
  }
  return cost;
}

uint64_t DcpiDriver::DeliverWideSample(uint32_t cpu_id,
                                       const WideSampleRecord& record) {
  PerCpu& cpu = per_cpu_[cpu_id];
  uint64_t cost = MaybeServiceFlush(cpu_id, &cpu);
  // The bypass path: no hash probe, the record goes straight to the
  // overflow stream (it cannot live in the packed 16-byte line).
  AppendOverflow(cpu_id, &cpu, OverflowRecord::Wide(record));
  ++cpu.counts.wide_records;
  return cost + config_.intr_setup_cycles + config_.wide_body_cycles;
}

void DcpiDriver::RequestFlush() {
  for (PerCpu& cpu : per_cpu_) {
    cpu.flush_requested.store(true, std::memory_order_relaxed);
  }
}

void DcpiDriver::FlushCpu(uint32_t cpu_id) {
  PerCpu& cpu = per_cpu_[cpu_id];
  cpu.flush_requested.store(false, std::memory_order_relaxed);
  ServiceFlush(cpu_id, &cpu);
}

size_t DcpiDriver::DrainCpuPublished(uint32_t cpu_id) {
  PerCpu& cpu = per_cpu_[cpu_id];
  size_t consumed = 0;
  for (OverflowBuffer& buffer : cpu.buffers) {
    uint8_t expected = kPublished;
    if (!buffer.state.compare_exchange_strong(expected, kDraining,
                                              std::memory_order_acquire)) {
      continue;
    }
    // The daemon's copy-out: snapshot the records, hand the buffer back to
    // the producer, then process the copy.
    std::vector<OverflowRecord> drained(buffer.records.begin(),
                                        buffer.records.begin() + buffer.count);
    buffer.count = 0;
    buffer.state.store(kFree, std::memory_order_release);
    // A producer blocked on backpressure sleeps on this buffer's state.
    if (drain_mode_ == DrainMode::kConcurrent) buffer.state.notify_one();
    if (overflow_handler_) overflow_handler_(cpu_id, drained);
    ++consumed;
  }
  return consumed;
}

void DcpiDriver::WakeDrainer() {
  drain_wake_.fetch_add(1, std::memory_order_release);
  drain_wake_.notify_all();
}

size_t DcpiDriver::DrainPublished() {
  size_t consumed = 0;
  for (uint32_t cpu_id = 0; cpu_id < per_cpu_.size(); ++cpu_id) {
    consumed += DrainCpuPublished(cpu_id);
  }
  return consumed;
}

void DcpiDriver::FlushAll() {
  for (uint32_t cpu_id = 0; cpu_id < per_cpu_.size(); ++cpu_id) {
    DrainCpuPublished(cpu_id);
    PerCpu& cpu = per_cpu_[cpu_id];
    std::vector<OverflowRecord> drained;
    cpu.table->Flush([&](const SampleRecord& record) {
      drained.push_back(OverflowRecord::Narrow(record));
    });
    OverflowBuffer& active = cpu.buffers[cpu.active_buffer];
    for (size_t i = 0; i < active.count; ++i) drained.push_back(active.records[i]);
    active.count = 0;
    if (!drained.empty() && overflow_handler_) overflow_handler_(cpu_id, drained);
  }
}

DriverCpuStats DcpiDriver::Snapshot(const HashTableStats& table,
                                    const Counts& counts) const {
  DriverCpuStats stats;
  stats.interrupts = table.lookups + counts.wide_records;
  stats.hash_hits = table.hits - table.saturation_spills;
  stats.hash_misses = table.misses + table.saturation_spills;
  stats.wide_records = counts.wide_records;
  stats.hit_path_cycles =
      stats.hash_hits * (config_.intr_setup_cycles + config_.hit_body_cycles);
  stats.miss_path_cycles =
      stats.hash_misses * (config_.intr_setup_cycles + config_.miss_body_cycles);
  stats.wide_path_cycles =
      stats.wide_records * (config_.intr_setup_cycles + config_.wide_body_cycles);
  stats.ipi_flush_cycles = counts.flush_requests_serviced * config_.ipi_flush_cycles;
  stats.handler_cycles = stats.hit_path_cycles + stats.miss_path_cycles +
                         stats.wide_path_cycles + stats.ipi_flush_cycles;
  stats.overflow_buffer_flushes = counts.overflow_buffer_flushes;
  stats.flush_requests_serviced = counts.flush_requests_serviced;
  stats.publish_waits = counts.publish_waits;
  return stats;
}

DriverCpuStats DcpiDriver::cpu_stats(uint32_t cpu_id) const {
  const PerCpu& cpu = per_cpu_[cpu_id];
  return Snapshot(cpu.table->stats(), cpu.counts);
}

DriverCpuStats DcpiDriver::TotalStats() const {
  Counts counts;
  for (const PerCpu& cpu : per_cpu_) counts.Accumulate(cpu.counts);
  return Snapshot(TotalTableStats(), counts);
}

HashTableStats DcpiDriver::TotalTableStats() const {
  HashTableStats total;
  for (const PerCpu& cpu : per_cpu_) total.Accumulate(cpu.table->stats());
  return total;
}

uint64_t DcpiDriver::KernelMemoryBytesPerCpu() const {
  uint64_t buffers = 2ull * config_.overflow_entries * 16;
  return config_.hash.MemoryBytes() + buffers;
}

double ModelledCostPerSample(const DriverConfig& config, const HashTableStats& stats) {
  double miss_rate = stats.MissRate();
  return static_cast<double>(config.intr_setup_cycles) +
         (1.0 - miss_rate) * static_cast<double>(config.hit_body_cycles) +
         miss_rate * static_cast<double>(config.miss_body_cycles);
}

std::vector<SampleKey> DcpiDriver::Trace() const {
  std::vector<SampleKey> all;
  for (const PerCpu& cpu : per_cpu_) {
    all.insert(all.end(), cpu.trace.begin(), cpu.trace.end());
  }
  return all;
}

}  // namespace dcpi
