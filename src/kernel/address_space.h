// Process address spaces.
//
// An address space is a set of mapped images (text + data at their
// prelinked addresses), anonymous regions (stack/heap), sparse backing
// pages, and a per-process random page colouring used for physical cache
// indexing. Instruction fetch goes through a shared predecode cache so the
// simulator does not re-decode hot loops.
//
// The simulator calls InstructionAt once per instruction and Load/Store
// once per memory operation, so each keeps its last answer close:
// InstructionAt checks the last text range it hit inline before searching
// the mappings, and backing pages are found through a small direct-mapped
// array of recent pages before the page map. Both only cache what the
// slow path would return, so results do not depend on them.

#ifndef SRC_KERNEL_ADDRESS_SPACE_H_
#define SRC_KERNEL_ADDRESS_SPACE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/cpu/pipeline_model.h"
#include "src/isa/image.h"
#include "src/memory/memory_system.h"
#include "src/support/status.h"

namespace dcpi {

// Predecoded text shared between all processes mapping an image: one
// Predecode()d issue descriptor per instruction.
struct PredecodedImage {
  std::shared_ptr<const ExecutableImage> image;
  std::vector<PredecodedInst> text;

  explicit PredecodedImage(std::shared_ptr<const ExecutableImage> img);
};

// Global registry of predecoded images (one per kernel instance).
class ImageRegistry {
 public:
  // Registers (or returns the existing) predecode for an image.
  const PredecodedImage* Register(std::shared_ptr<const ExecutableImage> image);
  const PredecodedImage* Find(const ExecutableImage* image) const;

 private:
  std::vector<std::unique_ptr<PredecodedImage>> entries_;
};

class AddressSpace {
 public:
  explicit AddressSpace(uint64_t page_seed) : mapper_(page_seed) {}

  // Maps an image's text and data sections at their prelinked addresses.
  Status MapImage(const PredecodedImage* predecoded);

  // Maps an anonymous zero-filled region (stack, heap).
  Status MapAnonymous(uint64_t start, uint64_t size);

  bool Load(uint64_t vaddr, unsigned size, uint64_t* out);
  bool Store(uint64_t vaddr, unsigned size, uint64_t value);
  uint64_t Translate(uint64_t vaddr) { return mapper_.Translate(vaddr); }

  // Predecoded instruction at pc, or nullptr outside mapped text.
  const PredecodedInst* InstructionAt(uint64_t pc) {
    uint64_t offset = pc - text_base_;
    if (offset < text_bytes_) return &text_[offset / kInstrBytes];
    return FindInstruction(pc);
  }

  struct Mapping {
    const PredecodedImage* predecoded;
  };
  const std::vector<Mapping>& mappings() const { return mappings_; }

  // Approximate resident size (for the Table 5 style accounting).
  uint64_t touched_bytes() const { return pages_.size() * kPageBytes; }

 private:
  bool InValidRange(uint64_t vaddr, unsigned size) const;
  // Searches the mappings for pc's text and makes it the cached range.
  const PredecodedInst* FindInstruction(uint64_t pc);
  // Backing page of `vaddr`, allocated zero-filled on first touch.
  uint8_t* PageFor(uint64_t vaddr) {
    uint64_t vpage = vaddr / kPageBytes;
    RecentPage& recent = recent_pages_[vpage % kRecentPages];
    if (recent.vpage != vpage) recent = {vpage, FindPage(vpage)};
    return recent.data;
  }
  uint8_t* FindPage(uint64_t vpage);

  struct Range {
    uint64_t start;
    uint64_t end;
  };

  PageMapper mapper_;
  std::vector<Mapping> mappings_;
  std::vector<Range> valid_ranges_;
  std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> pages_;

  // The text range InstructionAt last hit: [text_base_, text_base_ +
  // text_bytes_) holds text_. Empty until the first fetch.
  uint64_t text_base_ = 0;
  uint64_t text_bytes_ = 0;
  const PredecodedInst* text_ = nullptr;

  static constexpr uint64_t kRecentPages = 64;
  struct RecentPage {
    uint64_t vpage = ~0ull;  // no virtual page number is all ones
    uint8_t* data = nullptr;
  };
  RecentPage recent_pages_[kRecentPages];
};

}  // namespace dcpi

#endif  // SRC_KERNEL_ADDRESS_SPACE_H_
