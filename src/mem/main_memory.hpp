// Sparse, paged main memory. Backs both the reference interpreter and the
// timing simulator; reads of never-written locations return zero so that
// wrong-path execution with garbage addresses stays well defined.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

namespace cfir::mem {

/// Not safe for concurrent reads from several threads: a lookup remembers
/// the page it found. Share an image across threads by clone().
class MainMemory {
 public:
  static constexpr uint64_t kPageBits = 12;
  static constexpr uint64_t kPageSize = uint64_t{1} << kPageBits;

  MainMemory() = default;
  /// The moved-from memory forgets its remembered page with its pages.
  MainMemory(MainMemory&& other) noexcept;
  MainMemory& operator=(MainMemory&& other) noexcept;

  [[nodiscard]] uint8_t read8(uint64_t addr) const;
  [[nodiscard]] uint64_t read(uint64_t addr, int bytes) const;
  void write8(uint64_t addr, uint8_t value);
  void write(uint64_t addr, uint64_t value, int bytes);

  void write_block(uint64_t addr, const uint8_t* data, size_t n);

  /// Stable pointer to the 4 KiB page backing `addr`, or nullptr when the
  /// page was never written (reads of absent pages are zero). Pages are
  /// heap-allocated and never freed or moved while the MainMemory lives,
  /// so callers may cache the pointer across calls — the superblock
  /// engine's load/store fast path (isa/engine.cpp) does.
  [[nodiscard]] const uint8_t* page_data(uint64_t addr) const;
  /// Same, but creates the page when absent (store fast path).
  [[nodiscard]] uint8_t* mutable_page_data(uint64_t addr);

  /// Number of resident pages (host-memory footprint check).
  [[nodiscard]] size_t resident_pages() const { return pages_.size(); }

  /// Order-independent digest of all resident content (zero pages and
  /// absent pages hash identically), used by differential tests.
  [[nodiscard]] uint64_t digest() const;

  /// Deep copy (the interpreter runs on a private copy of the image).
  [[nodiscard]] MainMemory clone() const;

  /// Visits every resident page as (base_addr, data, kPageSize), in
  /// ascending address order so serialized output is deterministic. Used by
  /// checkpoint serialization (src/trace/).
  void for_each_page(
      const std::function<void(uint64_t base_addr, const uint8_t* data)>& fn)
      const;

 private:
  using Page = std::array<uint8_t, kPageSize>;
  /// The page backing `addr`, or nullptr; remembers the last page found,
  /// so a run of accesses within one page hashes once.
  [[nodiscard]] Page* find_page(uint64_t addr) const {
    const uint64_t no = addr >> kPageBits;
    if (last_page_ != nullptr && last_page_no_ == no) return last_page_;
    const auto it = pages_.find(no);
    if (it == pages_.end()) return nullptr;  // absent pages are not remembered
    last_page_no_ = no;
    last_page_ = it->second.get();
    return last_page_;
  }
  Page& touch_page(uint64_t addr);

  std::unordered_map<uint64_t, std::unique_ptr<Page>> pages_;
  // Pages never move or go away while the memory lives, so the remembered
  // pointer needs no revalidation.
  mutable uint64_t last_page_no_ = 0;
  mutable Page* last_page_ = nullptr;
};

}  // namespace cfir::mem
