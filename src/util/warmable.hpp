// Warmable: the hook set every functionally-warmable microarchitectural
// structure implements (SMARTS-style functional warming, docs/sampling.md).
// A Warmable component can
//   - report a deterministic digest of its table contents (differential
//     tests compare a functionally warmed instance against one trained by
//     detailed execution of the same committed prefix), and
//   - serialize / deserialize its state as one little-endian section of
//     the sparse WRM2 warm-state blob (docs/trace-format.md "Warm-state
//     blob"), which carries a capture into each detailed unit.
// The commit-order update methods themselves stay non-virtual on each
// component (warm paths are hot); this interface only standardizes the
// state-capture surface.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace cfir::util {

/// Append-only little-endian byte sink for Warmable::serialize.
class ByteWriter {
 public:
  void u8(uint8_t v) { buf_.push_back(v); }
  void u32(uint32_t v) { raw(&v, sizeof(v)); }
  void u64(uint64_t v) { raw(&v, sizeof(v)); }
  void i64(int64_t v) { raw(&v, sizeof(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void bytes(const uint8_t* data, size_t n) { raw(data, n); }

  /// Appends `n` zero bytes and returns where they start, for a writer that
  /// sizes a section first and then fills it in place.
  [[nodiscard]] uint8_t* extend(size_t n) {
    const size_t at = buf_.size();
    buf_.resize(at + n);
    return buf_.data() + at;
  }

  /// Appends a zero u32 and returns its offset, for a count that is known
  /// only once the entries after it are written (see patch_u32).
  [[nodiscard]] size_t placeholder_u32() {
    const size_t at = buf_.size();
    u32(0);
    return at;
  }
  void patch_u32(size_t at, uint32_t v) {
    std::memcpy(buf_.data() + at, &v, sizeof(v));
  }

  [[nodiscard]] const std::vector<uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<uint8_t> take() { return std::move(buf_); }

 private:
  void raw(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<uint8_t> buf_;
};

/// Bounds-checked reader over a serialized blob; throws std::runtime_error
/// on underflow so truncated/corrupt blobs fail loudly, never read stale
/// memory.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& blob)
      : ByteReader(blob.data(), blob.size()) {}

  uint8_t u8() { return *take(1); }
  uint32_t u32() { return read<uint32_t>(); }
  uint64_t u64() { return read<uint64_t>(); }
  int64_t i64() { return read<int64_t>(); }
  bool boolean() { return u8() != 0; }
  void bytes(uint8_t* out, size_t n) { std::memcpy(out, take(n), n); }
  /// The next `n` bytes in place, for a caller that copies them straight
  /// to where they belong.
  [[nodiscard]] const uint8_t* view(size_t n) { return take(n); }

  [[nodiscard]] size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool done() const { return pos_ == size_; }

 private:
  template <typename T>
  T read() {
    T v;
    std::memcpy(&v, take(sizeof(T)), sizeof(T));
    return v;
  }
  const uint8_t* take(size_t n) {
    if (size_ - pos_ < n) {
      throw std::runtime_error("ByteReader: truncated warm-state blob");
    }
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Accumulating FNV-1a 64-bit hash for debug_digest implementations.
/// Feed fields in a fixed order; the result is stable across hosts (all
/// inputs are hashed through fixed-width little-endian encodings).
class Digest {
 public:
  Digest& u8(uint8_t v) { return byte(v); }
  Digest& u32(uint32_t v) { return mix(&v, sizeof(v)); }
  Digest& u64(uint64_t v) { return mix(&v, sizeof(v)); }
  Digest& i64(int64_t v) { return mix(&v, sizeof(v)); }
  Digest& boolean(bool v) { return byte(v ? 1 : 0); }
  Digest& bytes(const uint8_t* data, size_t n) { return mix(data, n); }

  [[nodiscard]] uint64_t value() const { return h_; }

 private:
  Digest& byte(uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
    return *this;
  }
  Digest& mix(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    for (size_t i = 0; i < n; ++i) byte(b[i]);
    return *this;
  }
  uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Thrown by Warmable::deserialize when the blob was written for another
/// table geometry. Everything else a decoder rejects (truncation, a count
/// or slot out of range) is a plain std::runtime_error.
class GeometryMismatch : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Thrown when a component is built with a table geometry it cannot
/// index: a zero size, or a size it masks with that must be a power of
/// two. Configurations can arrive from files (a CFIRMAN2 manifest carries
/// raw CoreConfig bytes), so this is checked in every build type.
class BadGeometry : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Throws BadGeometry ("<component>: <what> <value> ...") unless `value`
/// is nonzero and, when `pow2`, a power of two.
inline void require_geometry(const std::string& component, const char* what,
                             uint64_t value, bool pow2) {
  if (value == 0) {
    throw BadGeometry(component + ": " + what + " must be nonzero");
  }
  if (pow2 && (value & (value - 1)) != 0) {
    throw BadGeometry(component + ": " + what + " " + std::to_string(value) +
                      " is not a power of two");
  }
}

/// The sparse entry list of a table-backed component: a u32 count, then,
/// for each kept entry in ascending slot order, its u32 table slot
/// followed by its fields. entry() appends the slot (the caller then
/// writes the fields); finish() patches the count.
class SparseWriter {
 public:
  explicit SparseWriter(ByteWriter& out)
      : out_(out), count_at_(out.placeholder_u32()) {}
  void entry(size_t slot) {
    out_.u32(static_cast<uint32_t>(slot));
    ++count_;
  }
  void finish() { out_.patch_u32(count_at_, count_); }

 private:
  ByteWriter& out_;
  size_t count_at_;
  uint32_t count_ = 0;
};

/// Writes `table` as a sparse entry list: the entries `keep` selects,
/// fields appended by `write_fields`. Components keep exactly the entries
/// that differ from the table's constructed default.
template <typename Entry, typename Keep, typename WriteFields>
void write_sparse(ByteWriter& out, const std::vector<Entry>& table, Keep keep,
                  WriteFields write_fields) {
  SparseWriter list(out);
  for (size_t slot = 0; slot < table.size(); ++slot) {
    if (!keep(table[slot])) continue;
    list.entry(slot);
    write_fields(table[slot]);
  }
  list.finish();
}

/// Reads a sparse entry list over a table of `slots` entries, calling
/// `read_slot(slot)` to decode each listed entry. Throws
/// std::runtime_error naming `what` on a count above the table size or a
/// slot that is past the end or not above the previous one, so a corrupt
/// blob can neither write outside the table nor set a slot twice.
template <typename ReadSlot>
void read_sparse_slots(ByteReader& in, size_t slots, const char* what,
                       ReadSlot read_slot) {
  const uint32_t count = in.u32();
  if (count > slots) {
    throw std::runtime_error(std::string(what) + ": warm-state entry count " +
                             std::to_string(count) + " exceeds " +
                             std::to_string(slots) + " table slots");
  }
  size_t min_slot = 0;
  for (uint32_t k = 0; k < count; ++k) {
    const uint32_t slot = in.u32();
    if (slot < min_slot || slot >= slots) {
      throw std::runtime_error(std::string(what) + ": warm-state slot " +
                               std::to_string(slot) +
                               " out of range or order");
    }
    read_slot(slot);
    min_slot = size_t{slot} + 1;
  }
}

/// read_sparse_slots into `table`, which the caller has reset to its
/// constructed default; `read_fields` decodes each listed entry in place.
template <typename Entry, typename ReadFields>
void read_sparse(ByteReader& in, std::vector<Entry>& table, const char* what,
                 ReadFields read_fields) {
  read_sparse_slots(in, table.size(), what,
                    [&](uint32_t slot) { read_fields(table[slot]); });
}

/// The interface proper. `deserialize` must reject blobs whose embedded
/// geometry (table sizes etc.) does not match the component's configured
/// geometry with GeometryMismatch — warm state is only transferable
/// between identically configured instances.
struct Warmable {
  virtual ~Warmable() = default;
  [[nodiscard]] virtual uint64_t debug_digest() const = 0;
  virtual void serialize(ByteWriter& out) const = 0;
  virtual void deserialize(ByteReader& in) = 0;
};

}  // namespace cfir::util
