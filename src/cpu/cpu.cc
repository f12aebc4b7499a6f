#include "src/cpu/cpu.h"

#include <cmath>
#include <cstring>

namespace dcpi {

namespace {

// Bit-cast helpers for FP loads/stores and itoft/ftoit.
double BitsToDouble(uint64_t bits) {
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}
uint64_t DoubleToBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

}  // namespace

const char* ExitReasonName(ExitReason reason) {
  switch (reason) {
    case ExitReason::kHalted:
      return "halted";
    case ExitReason::kYielded:
      return "yielded";
    case ExitReason::kQuantumExpired:
      return "quantum expired";
    case ExitReason::kInstructionLimit:
      return "instruction limit";
    case ExitReason::kBadPc:
      return "bad pc: fetch outside mapped text";
    case ExitReason::kBadMemory:
      return "bad memory: data access outside mapped memory";
  }
  return "unknown";
}

Cpu::Cpu(uint32_t cpu_id, const CpuConfig& config)
    : cpu_id_(cpu_id),
      config_(config),
      model_(config.pipeline),
      memory_(config.memory),
      predictor_(config.predictor_entries, config.ras_entries) {
  if (config_.issue_queue_depth > kMaxQueueDepth) {
    config_.issue_queue_depth = kMaxQueueDepth;
  }
  for (int op = 0; op < static_cast<int>(Opcode::kOpcodeCount); ++op) {
    DecodedInst inst;
    inst.op = static_cast<Opcode>(op);
    result_latency_[static_cast<int>(inst.klass())] = model_.ResultLatency(inst);
  }
  icache_line_shift_ = memory_.icache().line_shift();
}

void Cpu::OnContextSwitch() {
  ++stats_.context_switches;
  if (config_.flush_tlb_on_switch) memory_.ClearTlbs();
  ResetFetchLine();
  fetch_time_ = last_issue_time_;
  pending_fetch_cause_ = StallCause::kNone;
  floor_time_ = last_issue_time_;
  floor_cause_ = StallCause::kNone;
  group_closed_ = true;
  group_slots_ = 0;
  group_ndests_ = 0;
  group_size_ = 0;
  for (int b = 0; b < 2; ++b) {
    for (int r = 0; r < 32; ++r) {
      reg_ready_[b][r] = last_issue_time_;
      reg_cause_[b][r] = StallCause::kNone;
    }
  }
}

Cpu::FetchInfo Cpu::ComputeFetchTime(ExecContext& ctx, uint64_t pc) {
  FetchInfo info;
  // Fetch cannot run further ahead of issue than the queue depth allows.
  uint64_t oldest =
      recent_issue_[(recent_pos_ + kMaxQueueDepth - config_.issue_queue_depth) %
                    kMaxQueueDepth];
  if (fetch_time_ < oldest) fetch_time_ = oldest;

  // Within one virtual line the physical line cannot change, so only a new
  // virtual line is translated. Two virtual lines can still share a
  // physical line (page colours collide), so a line crossing is decided on
  // physical lines.
  bool new_line = false;
  uint64_t vline = pc >> icache_line_shift_;
  if (vline != fetch_vline_) {
    fetch_vline_ = vline;
    uint64_t paddr = ctx.Translate(pc);
    uint64_t line = paddr >> icache_line_shift_;
    if (line != fetch_line_) {
      new_line = true;
      if (fetch_line_ != ~0ull) {
        fetch_time_ += 1;  // line crossing consumes the next fetch slot
      }
      FetchResult fr = memory_.AccessFetch(pc, paddr);
      if (fr.latency > 0) fetch_time_ += fr.latency;
      if (fr.icache_miss) {
        info.icache_miss = true;
        info.cause = StallCause::kIcacheMiss;
        if (monitor_ != nullptr) monitor_->OnEvent(EventType::kImiss, fetch_time_);
      }
      if (fr.itb_miss) {
        info.itb_miss = true;
        info.cause = StallCause::kItbMiss;
      }
      fetch_line_ = line;
      fetch_count_ = 0;
    }
  }
  if (!new_line && fetch_count_ >= config_.pipeline.fetch_width) {
    fetch_time_ += 1;
    fetch_count_ = 0;
    if (info.cause == StallCause::kNone) info.cause = StallCause::kFetchWidth;
  }
  ++fetch_count_;
  if (pending_fetch_cause_ != StallCause::kNone) {
    info.cause = pending_fetch_cause_;
    pending_fetch_cause_ = StallCause::kNone;
  }
  info.time = fetch_time_;
  return info;
}

void Cpu::RedirectFetch(uint64_t resume_time, StallCause cause) {
  fetch_time_ = resume_time;
  ResetFetchLine();
  pending_fetch_cause_ = cause;
}

bool Cpu::DependsOnGroup(const PredecodedInst& p) const {
  for (int d = 0; d < group_ndests_; ++d) {
    for (int s = 0; s < p.nsrcs; ++s) {
      if (p.srcs[s] == group_dests_[d]) return true;  // RAW
    }
    if (p.has_dest && p.dest == group_dests_[d]) return true;  // WAW
  }
  return false;
}

bool Cpu::Step(ExecContext& ctx) {
  RegFile& regs = ctx.regs();
  const uint64_t pc = regs.pc;
  const PredecodedInst* pre = ctx.FetchInstruction(pc);
  if (pre == nullptr) {
    exit_ = ExitReason::kBadPc;
    return false;
  }
  const DecodedInst* inst = &pre->inst;
  const InstrClass klass = pre->klass;

  // ---- Front end ----
  FetchInfo fetch = ComputeFetchTime(ctx, pc);

  // ---- Issue constraints ----
  Constraint constraint;
  constraint.Raise(fetch.time, fetch.cause);
  constraint.Raise(floor_time_, floor_cause_);

  for (int s = 0; s < pre->nsrcs; ++s) {
    int bank = static_cast<int>(pre->srcs[s].bank);
    uint64_t ready = reg_ready_[bank][pre->srcs[s].index];
    StallCause cause = reg_cause_[bank][pre->srcs[s].index];
    constraint.Raise(ready, cause == StallCause::kNone ? StallCause::kDependency : cause);
  }
  if (pre->uses_imul) {
    constraint.Raise(imul_free_, StallCause::kImulBusy);
  }
  if (pre->uses_fdiv) {
    constraint.Raise(fdiv_free_, StallCause::kFdivBusy);
  }

  // Memory-instruction address and DTB handling (pre-issue).
  uint64_t vaddr = 0;
  uint64_t paddr = 0;
  bool dtb_miss = false;
  if (klass == InstrClass::kLoad || klass == InstrClass::kStore) {
    vaddr = static_cast<uint64_t>(regs.ReadInt(inst->rb) + inst->disp);
    paddr = ctx.Translate(vaddr);
    dtb_miss = memory_.AccessDtbForData(vaddr);
    if (dtb_miss) {
      // The PAL fill runs once the access reaches the head of the queue.
      constraint.Raise(last_issue_time_ + memory_.config().tlb_fill_penalty,
                       StallCause::kDtbMiss);
      if (monitor_ != nullptr) monitor_->OnEvent(EventType::kDtbMiss, last_issue_time_);
    }
  }
  if (klass == InstrClass::kStore) {
    uint64_t base = std::max(constraint.time, last_issue_time_);
    constraint.Raise(memory_.write_buffer().EarliestIssue(paddr, base),
                     StallCause::kWriteBuffer);
  }
  if (klass == InstrClass::kBarrier) {
    constraint.Raise(memory_.write_buffer().DrainAllTime(), StallCause::kSync);
  }

  // ---- Grouping / issue time ----
  uint64_t prev_issue_event = last_issue_time_;
  int slot = PipelineModel::PickSlot(pre->slot_mask, group_slots_);
  bool can_group = !group_closed_ && group_size_ > 0 &&
                   group_size_ < kNumIssueSlots && slot >= 0 &&
                   constraint.time <= group_time_ && !pre->issues_alone &&
                   !DependsOnGroup(*pre);

  uint64_t issue_time;
  bool new_group;
  if (can_group) {
    issue_time = group_time_;
    group_slots_ |= static_cast<uint8_t>(1 << slot);
    ++group_size_;
    new_group = false;
  } else {
    issue_time = std::max(group_time_ + 1, constraint.time);
    new_group = true;
  }

  // Samples: the head interval (prev_issue_event, issue_time] belongs to
  // this instruction. The monitor may stretch the stall with handler time.
  if (new_group && monitor_ != nullptr) {
    uint64_t adjusted = monitor_->OnIssue(ctx.pid(), pc, prev_issue_event, issue_time);
    if (adjusted > issue_time) {
      fetch_time_ += adjusted - issue_time;
      issue_time = adjusted;
    }
  }
  if (new_group) {
    group_time_ = issue_time;
    group_slots_ = static_cast<uint8_t>(1 << (slot >= 0 ? slot : 0));
    group_ndests_ = 0;
    group_size_ = 1;
    group_closed_ = pre->ends_group;
    ++stats_.issue_groups;
  } else if (pre->ends_group) {
    group_closed_ = true;
  }
  if (pre->has_dest && group_ndests_ < kNumIssueSlots) {
    group_dests_[group_ndests_++] = pre->dest;
  }
  last_issue_time_ = group_time_;
  recent_issue_[recent_pos_ % kMaxQueueDepth] = issue_time;
  ++recent_pos_;

  // ---- Execute ----
  uint64_t next_pc = pc + kInstrBytes;
  uint64_t dest_ready = issue_time + result_latency_[static_cast<int>(klass)];
  StallCause dest_cause = StallCause::kNone;
  bool record_taken_edge = false;
  uint64_t taken_target = 0;
  bool dmiss = false;
  bool mispredicted = false;

  switch (inst->op) {
    case Opcode::kLda:
      regs.WriteInt(inst->ra, regs.ReadInt(inst->rb) + inst->disp);
      break;
    case Opcode::kLdah:
      regs.WriteInt(inst->ra, regs.ReadInt(inst->rb) + (static_cast<int64_t>(inst->disp) << 16));
      break;
    case Opcode::kLdq:
    case Opcode::kLdl:
    case Opcode::kLdt: {
      ++stats_.loads;
      unsigned size = inst->op == Opcode::kLdl ? 4 : 8;
      uint64_t value = 0;
      if (!ctx.LoadData(vaddr, size, &value)) {
        exit_ = ExitReason::kBadMemory;
        fault_vaddr_ = vaddr;
        return false;
      }
      LoadResult lr = memory_.AccessLoad(paddr);
      dest_ready = issue_time + lr.latency;
      if (lr.dcache_miss) {
        dmiss = true;
        dest_cause = StallCause::kDcacheMiss;
        if (monitor_ != nullptr) monitor_->OnEvent(EventType::kDmiss, issue_time);
      }
      // Runs after this instruction's OnIssue: a monitor that armed a wide
      // sample at delivery fills in the data address, latency and level.
      if (monitor_ != nullptr) {
        monitor_->OnDataAccess(ctx.pid(), pc, vaddr, lr.latency, lr.dcache_miss,
                               lr.board_miss, dtb_miss);
      }
      if (inst->op == Opcode::kLdl) {
        regs.WriteInt(inst->ra, static_cast<int64_t>(static_cast<int32_t>(value)));
      } else if (inst->op == Opcode::kLdt) {
        regs.WriteFp(inst->ra, BitsToDouble(value));
      } else {
        regs.WriteInt(inst->ra, static_cast<int64_t>(value));
      }
      break;
    }
    case Opcode::kStq:
    case Opcode::kStl:
    case Opcode::kStt: {
      ++stats_.stores;
      unsigned size = inst->op == Opcode::kStl ? 4 : 8;
      uint64_t value = inst->op == Opcode::kStt
                           ? DoubleToBits(regs.ReadFp(inst->ra))
                           : static_cast<uint64_t>(regs.ReadInt(inst->ra));
      if (!ctx.StoreData(vaddr, size, value)) {
        exit_ = ExitReason::kBadMemory;
        fault_vaddr_ = vaddr;
        return false;
      }
      memory_.CommitStore(paddr, issue_time);
      break;
    }
    case Opcode::kAddq:
    case Opcode::kSubq:
    case Opcode::kMulq:
    case Opcode::kAnd:
    case Opcode::kBis:
    case Opcode::kXor:
    case Opcode::kSll:
    case Opcode::kSrl:
    case Opcode::kSra:
    case Opcode::kCmpeq:
    case Opcode::kCmplt:
    case Opcode::kCmple:
    case Opcode::kCmpult:
    case Opcode::kCmpule: {
      int64_t a = regs.ReadInt(inst->ra);
      int64_t b = inst->has_literal ? inst->literal : regs.ReadInt(inst->rb);
      int64_t result = 0;
      switch (inst->op) {
        // Arithmetic wraps modulo 2^64 like the hardware; compute unsigned
        // to avoid signed-overflow UB on guest programs that rely on it
        // (e.g. LCG random-number kernels).
        case Opcode::kAddq:
          result = static_cast<int64_t>(static_cast<uint64_t>(a) +
                                        static_cast<uint64_t>(b));
          break;
        case Opcode::kSubq:
          result = static_cast<int64_t>(static_cast<uint64_t>(a) -
                                        static_cast<uint64_t>(b));
          break;
        case Opcode::kMulq:
          result = static_cast<int64_t>(static_cast<uint64_t>(a) *
                                        static_cast<uint64_t>(b));
          imul_free_ = issue_time + config_.pipeline.imul_repeat;
          break;
        case Opcode::kAnd:
          result = a & b;
          break;
        case Opcode::kBis:
          result = a | b;
          break;
        case Opcode::kXor:
          result = a ^ b;
          break;
        case Opcode::kSll:
          result = static_cast<int64_t>(static_cast<uint64_t>(a) << (b & 63));
          break;
        case Opcode::kSrl:
          result = static_cast<int64_t>(static_cast<uint64_t>(a) >> (b & 63));
          break;
        case Opcode::kSra:
          result = a >> (b & 63);
          break;
        case Opcode::kCmpeq:
          result = a == b;
          break;
        case Opcode::kCmplt:
          result = a < b;
          break;
        case Opcode::kCmple:
          result = a <= b;
          break;
        case Opcode::kCmpult:
          result = static_cast<uint64_t>(a) < static_cast<uint64_t>(b);
          break;
        case Opcode::kCmpule:
          result = static_cast<uint64_t>(a) <= static_cast<uint64_t>(b);
          break;
        default:
          break;
      }
      regs.WriteInt(inst->rc, result);
      break;
    }
    case Opcode::kCmoveq:
    case Opcode::kCmovne: {
      int64_t a = regs.ReadInt(inst->ra);
      int64_t b = inst->has_literal ? inst->literal : regs.ReadInt(inst->rb);
      bool move = inst->op == Opcode::kCmoveq ? (a == 0) : (a != 0);
      if (move) regs.WriteInt(inst->rc, b);
      break;
    }
    case Opcode::kAddt:
    case Opcode::kSubt:
    case Opcode::kMult:
    case Opcode::kDivt:
    case Opcode::kCpys:
    case Opcode::kCmptlt:
    case Opcode::kCmpteq:
    case Opcode::kCvtqt:
    case Opcode::kCvttq: {
      double a = regs.ReadFp(inst->ra);
      double b = inst->has_literal ? static_cast<double>(inst->literal) : regs.ReadFp(inst->rb);
      double result = 0.0;
      switch (inst->op) {
        case Opcode::kAddt:
          result = a + b;
          break;
        case Opcode::kSubt:
          result = a - b;
          break;
        case Opcode::kMult:
          result = a * b;
          break;
        case Opcode::kDivt:
          result = b != 0.0 ? a / b : 0.0;
          fdiv_free_ = issue_time + config_.pipeline.fdiv_repeat;
          break;
        case Opcode::kCpys:
          result = a < 0.0 || (a == 0.0 && std::signbit(a)) ? -std::fabs(b) : std::fabs(b);
          break;
        case Opcode::kCmptlt:
          result = a < b ? 2.0 : 0.0;
          break;
        case Opcode::kCmpteq:
          result = a == b ? 2.0 : 0.0;
          break;
        case Opcode::kCvtqt:
          result = static_cast<double>(static_cast<int64_t>(DoubleToBits(b)));
          break;
        case Opcode::kCvttq:
          result = BitsToDouble(static_cast<uint64_t>(static_cast<int64_t>(b)));
          break;
        default:
          break;
      }
      regs.WriteFp(inst->rc, result);
      break;
    }
    case Opcode::kItoft:
      regs.WriteFp(inst->ra, BitsToDouble(static_cast<uint64_t>(regs.ReadInt(inst->rb))));
      break;
    case Opcode::kFtoit:
      regs.WriteInt(inst->ra, static_cast<int64_t>(DoubleToBits(regs.ReadFp(inst->rb))));
      break;
    case Opcode::kBr:
    case Opcode::kBsr: {
      uint64_t target = inst->BranchTarget(pc);
      regs.WriteInt(inst->ra, static_cast<int64_t>(pc + kInstrBytes));
      if (inst->op == Opcode::kBsr) predictor_.PushReturn(pc + kInstrBytes);
      next_pc = target;
      record_taken_edge = true;
      taken_target = target;
      RedirectFetch(issue_time + config_.pipeline.taken_branch_bubble, StallCause::kNone);
      break;
    }
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBle:
    case Opcode::kBgt:
    case Opcode::kBge:
    case Opcode::kFbeq:
    case Opcode::kFbne: {
      ++stats_.cond_branches;
      bool taken = false;
      if (inst->op == Opcode::kFbeq || inst->op == Opcode::kFbne) {
        double a = regs.ReadFp(inst->ra);
        taken = inst->op == Opcode::kFbeq ? (a == 0.0) : (a != 0.0);
      } else {
        int64_t a = regs.ReadInt(inst->ra);
        switch (inst->op) {
          case Opcode::kBeq:
            taken = a == 0;
            break;
          case Opcode::kBne:
            taken = a != 0;
            break;
          case Opcode::kBlt:
            taken = a < 0;
            break;
          case Opcode::kBle:
            taken = a <= 0;
            break;
          case Opcode::kBgt:
            taken = a > 0;
            break;
          case Opcode::kBge:
            taken = a >= 0;
            break;
          default:
            break;
        }
      }
      bool correct = predictor_.PredictConditional(pc, taken);
      if (!correct) {
        ++stats_.mispredicts;
        mispredicted = true;
        if (monitor_ != nullptr) monitor_->OnEvent(EventType::kBranchMp, issue_time);
      }
      if (taken) {
        uint64_t target = inst->BranchTarget(pc);
        next_pc = target;
        record_taken_edge = true;
        taken_target = target;
        RedirectFetch(issue_time + (correct ? config_.pipeline.taken_branch_bubble
                                            : config_.pipeline.mispredict_penalty),
                      correct ? StallCause::kNone : StallCause::kBranchMispredict);
      } else if (!correct) {
        // Predicted taken, fell through: wrong-path fetch must be undone.
        RedirectFetch(issue_time + config_.pipeline.mispredict_penalty,
                      StallCause::kBranchMispredict);
      }
      break;
    }
    case Opcode::kJmp:
    case Opcode::kJsr:
    case Opcode::kRet: {
      uint64_t target = static_cast<uint64_t>(regs.ReadInt(inst->rb)) & ~(kInstrBytes - 1);
      regs.WriteInt(inst->ra, static_cast<int64_t>(pc + kInstrBytes));
      if (inst->op == Opcode::kJsr) predictor_.PushReturn(pc + kInstrBytes);
      uint64_t bubble = config_.pipeline.jump_bubble;
      if (inst->op == Opcode::kRet) {
        if (predictor_.PopReturnMatches(target)) {
          bubble = config_.pipeline.taken_branch_bubble;
        } else {
          bubble = config_.pipeline.mispredict_penalty;
          mispredicted = true;
          if (monitor_ != nullptr) monitor_->OnEvent(EventType::kBranchMp, issue_time);
        }
      }
      next_pc = target;
      record_taken_edge = true;
      taken_target = target;
      RedirectFetch(issue_time + bubble,
                    mispredicted ? StallCause::kBranchMispredict : StallCause::kNone);
      break;
    }
    case Opcode::kMb:
      break;
    case Opcode::kCallPal: {
      PalFunc func = static_cast<PalFunc>(inst->disp);
      if (func == PalFunc::kHalt) {
        exit_ = ExitReason::kHalted;
        exit_after_ = true;
        break;
      }
      if (func == PalFunc::kYield) {
        exit_ = ExitReason::kYielded;
        exit_after_ = true;
        break;
      }
      // kNopPal and unknown functions: spend time in PAL mode.
      uint64_t pal_end = issue_time + config_.pal_nop_cycles;
      if (monitor_ != nullptr) monitor_->OnPalWindow(issue_time, pal_end);
      floor_time_ = pal_end;
      floor_cause_ = StallCause::kNone;
      RedirectFetch(pal_end, StallCause::kNone);
      last_issue_time_ = pal_end;
      group_time_ = pal_end;
      group_closed_ = true;
      break;
    }
    case Opcode::kOpcodeCount:
      break;
  }

  // Scoreboard update.
  if (pre->has_dest) {
    int bank = static_cast<int>(pre->dest.bank);
    reg_ready_[bank][pre->dest.index] = dest_ready;
    reg_cause_[bank][pre->dest.index] = dest_cause;
  }

  // ---- Ground truth ----
  if (ground_truth_ != nullptr) {
    InstructionTruth* truth = ground_truth_->ForPc(pc);
    if (truth != nullptr) {
      ++truth->exec_count;
      if (fetch.icache_miss) ++truth->imiss_events;
      if (dmiss) ++truth->dmiss_events;
      if (mispredicted) ++truth->mispredict_events;
      if (dtb_miss) ++truth->dtbmiss_events;
      if (new_group) {
        uint64_t head = issue_time - prev_issue_event;
        truth->head_cycles += head;
        if (head > 1 && constraint.cause != StallCause::kNone &&
            constraint.time > prev_issue_event + 1) {
          uint64_t stall = std::min(head - 1, constraint.time - prev_issue_event - 1);
          truth->stall_cycles[static_cast<int>(constraint.cause)] += stall;
        } else if (head > 1) {
          truth->stall_cycles[static_cast<int>(StallCause::kSlotting)] += head - 1;
        }
      }
    }
    if (record_taken_edge) ground_truth_->AddEdge(pc, taken_target);
  }

  regs.pc = next_pc;
  ++stats_.instructions;
  if (exit_after_) {
    exit_after_ = false;
    return false;
  }
  return true;
}

RunResult Cpu::Run(ExecContext& ctx, uint64_t max_cycles, uint64_t max_instructions) {
  uint64_t start_cycle = last_issue_time_;
  uint64_t start_instructions = stats_.instructions;
  // `ctx` may not be the context the fetch line was translated in; the
  // first fetch translates again (fetch_line_ itself stays, as before).
  fetch_vline_ = ~0ull;
  while (true) {
    if (last_issue_time_ - start_cycle >= max_cycles) {
      exit_ = ExitReason::kQuantumExpired;
      break;
    }
    if (stats_.instructions - start_instructions >= max_instructions) {
      exit_ = ExitReason::kInstructionLimit;
      break;
    }
    if (!Step(ctx)) break;
  }
  return RunResult{exit_, last_issue_time_ - start_cycle,
                   stats_.instructions - start_instructions,
                   exit_ == ExitReason::kBadMemory ? fault_vaddr_ : 0};
}

}  // namespace dcpi
