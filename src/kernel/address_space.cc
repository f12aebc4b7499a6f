#include "src/kernel/address_space.h"

#include <algorithm>
#include <cstring>

namespace dcpi {

PredecodedImage::PredecodedImage(std::shared_ptr<const ExecutableImage> img)
    : image(std::move(img)) {
  text.reserve(image->num_instructions());
  for (uint32_t word : image->text()) {
    text.push_back(Predecode(Decode(word).value_or(DecodedInst{})));
  }
}

const PredecodedImage* ImageRegistry::Register(std::shared_ptr<const ExecutableImage> image) {
  if (const PredecodedImage* existing = Find(image.get())) return existing;
  entries_.push_back(std::make_unique<PredecodedImage>(std::move(image)));
  return entries_.back().get();
}

const PredecodedImage* ImageRegistry::Find(const ExecutableImage* image) const {
  for (const auto& entry : entries_) {
    if (entry->image.get() == image) return entry.get();
  }
  return nullptr;
}

Status AddressSpace::MapImage(const PredecodedImage* predecoded) {
  const ExecutableImage& image = *predecoded->image;
  mappings_.push_back({predecoded});
  valid_ranges_.push_back({image.text_base(), image.text_end()});
  if (image.data_size() > 0) {
    valid_ranges_.push_back({image.data_base(), image.data_base() + image.data_size()});
    // Copy initialized data into backing pages, a page at a time.
    const std::vector<uint8_t>& init = image.data_init();
    for (size_t i = 0; i < init.size();) {
      uint64_t vaddr = image.data_base() + i;
      uint64_t offset = vaddr % kPageBytes;
      size_t chunk = std::min<size_t>(init.size() - i, kPageBytes - offset);
      std::memcpy(PageFor(vaddr) + offset, init.data() + i, chunk);
      i += chunk;
    }
  }
  return Status::Ok();
}

Status AddressSpace::MapAnonymous(uint64_t start, uint64_t size) {
  if (size == 0) return InvalidArgument("empty anonymous mapping");
  valid_ranges_.push_back({start, start + size});
  return Status::Ok();
}

bool AddressSpace::InValidRange(uint64_t vaddr, unsigned size) const {
  for (const Range& r : valid_ranges_) {
    if (vaddr >= r.start && vaddr + size <= r.end) return true;
  }
  return false;
}

uint8_t* AddressSpace::FindPage(uint64_t vpage) {
  auto it = pages_.find(vpage);
  if (it == pages_.end()) {
    auto page = std::make_unique<uint8_t[]>(kPageBytes);
    std::memset(page.get(), 0, kPageBytes);
    it = pages_.emplace(vpage, std::move(page)).first;
  }
  return it->second.get();
}

// Values are little-endian. An access that stays in one page resolves the
// page once; only a page-crossing access goes byte by byte.
bool AddressSpace::Load(uint64_t vaddr, unsigned size, uint64_t* out) {
  if (!InValidRange(vaddr, size)) return false;
  uint64_t value = 0;
  uint64_t offset = vaddr % kPageBytes;
  if (offset + size <= kPageBytes) {
    const uint8_t* bytes = PageFor(vaddr) + offset;
    for (unsigned i = 0; i < size; ++i) value |= static_cast<uint64_t>(bytes[i]) << (8 * i);
  } else {
    for (unsigned i = 0; i < size; ++i) {
      uint64_t a = vaddr + i;
      value |= static_cast<uint64_t>(PageFor(a)[a % kPageBytes]) << (8 * i);
    }
  }
  *out = value;
  return true;
}

bool AddressSpace::Store(uint64_t vaddr, unsigned size, uint64_t value) {
  if (!InValidRange(vaddr, size)) return false;
  uint64_t offset = vaddr % kPageBytes;
  if (offset + size <= kPageBytes) {
    uint8_t* bytes = PageFor(vaddr) + offset;
    for (unsigned i = 0; i < size; ++i) bytes[i] = static_cast<uint8_t>(value >> (8 * i));
  } else {
    for (unsigned i = 0; i < size; ++i) {
      uint64_t a = vaddr + i;
      PageFor(a)[a % kPageBytes] = static_cast<uint8_t>(value >> (8 * i));
    }
  }
  return true;
}

const PredecodedInst* AddressSpace::FindInstruction(uint64_t pc) {
  for (const Mapping& m : mappings_) {
    const ExecutableImage& image = *m.predecoded->image;
    if (image.ContainsPc(pc)) {
      text_base_ = image.text_base();
      text_bytes_ = image.text_end() - image.text_base();
      text_ = m.predecoded->text.data();
      return &text_[(pc - text_base_) / kInstrBytes];
    }
  }
  return nullptr;
}

}  // namespace dcpi
