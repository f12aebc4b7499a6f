// Execution context: what the CPU needs from the OS layer to run a process.
//
// The kernel (src/kernel) implements this for real processes; tests can
// implement it directly with a flat memory. The CPU calls FetchInstruction
// once per dynamic instruction, Translate once per fetched I-cache line
// and per data access, and LoadData/StoreData once per memory operation,
// so implementations keep these on a fast path (see AddressSpace).

#ifndef SRC_CPU_EXEC_CONTEXT_H_
#define SRC_CPU_EXEC_CONTEXT_H_

#include <cstdint>
#include <cstring>

#include "src/cpu/pipeline_model.h"
#include "src/isa/instruction.h"

namespace dcpi {

struct RegFile {
  int64_t r[kNumIntRegs] = {};
  double f[kNumFpRegs] = {};
  uint64_t pc = 0;

  int64_t ReadInt(uint8_t index) const { return index == kZeroReg ? 0 : r[index]; }
  void WriteInt(uint8_t index, int64_t value) {
    if (index != kZeroReg) r[index] = value;
  }
  double ReadFp(uint8_t index) const { return index == kZeroReg ? 0.0 : f[index]; }
  void WriteFp(uint8_t index, double value) {
    if (index != kZeroReg) f[index] = value;
  }
};

class ExecContext {
 public:
  virtual ~ExecContext() = default;

  virtual uint32_t pid() const = 0;
  virtual RegFile& regs() = 0;

  // Data access (size in {4, 8}); returns false on unmapped addresses.
  virtual bool LoadData(uint64_t vaddr, unsigned size, uint64_t* out) = 0;
  virtual bool StoreData(uint64_t vaddr, unsigned size, uint64_t value) = 0;

  // Physical address for cache indexing.
  virtual uint64_t Translate(uint64_t vaddr) = 0;

  // Predecoded instruction at `pc` (built once per static instruction by
  // Predecode()); nullptr if pc is outside mapped text.
  virtual const PredecodedInst* FetchInstruction(uint64_t pc) = 0;
};

}  // namespace dcpi

#endif  // SRC_CPU_EXEC_CONTEXT_H_
