#include "mem/main_memory.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace cfir::mem {

MainMemory::MainMemory(MainMemory&& other) noexcept
    : pages_(std::move(other.pages_)),
      last_page_no_(other.last_page_no_),
      last_page_(other.last_page_) {
  other.pages_.clear();
  other.last_page_ = nullptr;
}

MainMemory& MainMemory::operator=(MainMemory&& other) noexcept {
  if (this != &other) {
    pages_ = std::move(other.pages_);
    last_page_no_ = other.last_page_no_;
    last_page_ = other.last_page_;
    other.pages_.clear();
    other.last_page_ = nullptr;
  }
  return *this;
}

MainMemory::Page& MainMemory::touch_page(uint64_t addr) {
  if (Page* p = find_page(addr)) return *p;
  auto& slot = pages_[addr >> kPageBits];
  slot = std::make_unique<Page>();
  slot->fill(0);
  return *slot;
}

uint8_t MainMemory::read8(uint64_t addr) const {
  const Page* p = find_page(addr);
  return p ? (*p)[addr & (kPageSize - 1)] : 0;
}

uint64_t MainMemory::read(uint64_t addr, int bytes) const {
  assert(bytes >= 1 && bytes <= 8);
  const uint64_t off = addr & (kPageSize - 1);
  uint64_t v = 0;
  if (off + static_cast<uint64_t>(bytes) <= kPageSize) {
    // Within one page: one lookup (little-endian byte order, as below).
    const Page* p = find_page(addr);
    if (p == nullptr) return 0;
    for (int i = bytes - 1; i >= 0; --i) {
      v = (v << 8) | (*p)[off + static_cast<uint64_t>(i)];
    }
    return v;
  }
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(read8(addr + static_cast<uint64_t>(i)))
         << (8 * i);
  }
  return v;
}

void MainMemory::write8(uint64_t addr, uint8_t value) {
  touch_page(addr)[addr & (kPageSize - 1)] = value;
}

void MainMemory::write(uint64_t addr, uint64_t value, int bytes) {
  assert(bytes >= 1 && bytes <= 8);
  const uint64_t off = addr & (kPageSize - 1);
  if (off + static_cast<uint64_t>(bytes) <= kPageSize) {
    Page& p = touch_page(addr);
    for (int i = 0; i < bytes; ++i) {
      p[off + static_cast<uint64_t>(i)] =
          static_cast<uint8_t>(value >> (8 * i));
    }
    return;
  }
  for (int i = 0; i < bytes; ++i) {
    write8(addr + static_cast<uint64_t>(i),
           static_cast<uint8_t>(value >> (8 * i)));
  }
}

const uint8_t* MainMemory::page_data(uint64_t addr) const {
  const Page* p = find_page(addr);
  return p ? p->data() : nullptr;
}

uint8_t* MainMemory::mutable_page_data(uint64_t addr) {
  return touch_page(addr).data();
}

void MainMemory::write_block(uint64_t addr, const uint8_t* data, size_t n) {
  // One page lookup per page the block touches, then a plain copy.
  while (n > 0) {
    const uint64_t off = addr & (kPageSize - 1);
    const size_t run = static_cast<size_t>(
        std::min<uint64_t>(n, kPageSize - off));
    std::memcpy(touch_page(addr).data() + off, data, run);
    addr += run;
    data += run;
    n -= run;
  }
}

uint64_t MainMemory::digest() const {
  // FNV-1a over (address, byte) pairs of non-zero bytes only, XOR-combined
  // across pages so the result is independent of page iteration order and
  // of whether a zero byte is resident or absent.
  uint64_t acc = 0;
  for (const auto& [page_no, page] : pages_) {
    for (uint64_t off = 0; off < kPageSize; ++off) {
      const uint8_t b = (*page)[off];
      if (b == 0) continue;
      uint64_t h = 1469598103934665603ULL;
      const uint64_t addr = (page_no << kPageBits) | off;
      for (int i = 0; i < 8; ++i) {
        h ^= (addr >> (8 * i)) & 0xff;
        h *= 1099511628211ULL;
      }
      h ^= b;
      h *= 1099511628211ULL;
      acc ^= h;
    }
  }
  return acc;
}

void MainMemory::for_each_page(
    const std::function<void(uint64_t base_addr, const uint8_t* data)>& fn)
    const {
  std::vector<uint64_t> page_nos;
  page_nos.reserve(pages_.size());
  for (const auto& [page_no, page] : pages_) page_nos.push_back(page_no);
  std::sort(page_nos.begin(), page_nos.end());
  for (const uint64_t page_no : page_nos) {
    fn(page_no << kPageBits, pages_.at(page_no)->data());
  }
}

MainMemory MainMemory::clone() const {
  MainMemory copy;
  for (const auto& [page_no, page] : pages_) {
    auto p = std::make_unique<Page>(*page);
    copy.pages_.emplace(page_no, std::move(p));
  }
  return copy;
}

}  // namespace cfir::mem
