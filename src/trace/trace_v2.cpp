#include "trace/trace_v2.hpp"

#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "trace/blob.hpp"
#include "trace/errors.hpp"
#include "util/crc32.hpp"

namespace cfir::trace::v2 {

namespace {

constexpr char kIndexMagic[8] = {'C', 'F', 'I', 'R', 'I', 'D', 'X', '2'};
/// Magic of the retired row-oriented format, recognised only to reject it.
constexpr char kRetiredTraceMagic[8] = {'C', 'F', 'I', 'R',
                                        'T', 'R', 'C', '1'};

/// Fixed part of a block: u32 record count, five u64 coder bases, and the
/// eleven u32 per-column payload lengths.
constexpr size_t kBlockFixedBytes = 4 + 5 * 8 + kTraceV2Columns * 4;

/// Index footer after the entries: u64 n_blocks + u64 index_offset +
/// index magic + "CRC1" index crc + whole-file "CRC1" footer.
constexpr size_t kIndexTailBytes = 8 + 8 + 8 + kCrcFooterBytes +
                                   kCrcFooterBytes;

constexpr uint64_t zigzag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
constexpr int64_t unzigzag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

// pc and branch-target deltas are almost always multiples of
// isa::kInstBytes (4), so the codec divides them down before zigzag and
// carries the remainder in the low two bits — one varint byte then spans
// ±16KiB of code instead of ±4KiB. Works for arbitrary 64-bit deltas:
// d = 4*(sd >> 2) + (d & 3) with an arithmetic (floor) shift.
constexpr uint64_t scale_encode(uint64_t d) {
  return (zigzag(static_cast<int64_t>(d) >> 2) << 2) | (d & 3);
}
constexpr uint64_t scale_decode(uint64_t v) {
  return (static_cast<uint64_t>(unzigzag(v >> 2)) << 2) + (v & 3);
}

uint8_t log2_size(uint8_t bytes) {
  switch (bytes) {
    case 1: return 0;
    case 2: return 1;
    case 4: return 2;
    default: return 3;
  }
}

void put_u32(std::vector<uint8_t>& out, uint32_t v) {
  const size_t n = out.size();
  out.resize(n + 4);
  std::memcpy(out.data() + n, &v, 4);
}
void put_u64(std::vector<uint8_t>& out, uint64_t v) {
  const size_t n = out.size();
  out.resize(n + 8);
  std::memcpy(out.data() + n, &v, 8);
}
uint32_t rd_u32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
uint64_t rd_u64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

void put_varint(std::vector<uint8_t>& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<uint8_t>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<uint8_t>(v));
}

// --------------------------------------------------------------------------
// Per-column byte compressor: a tiny deterministic greedy LZ (hash-4 match
// finder, varint-framed literal-run / match pairs, unbounded window inside
// the column). Column payloads are highly repetitive — the kind stream and
// the flag bitmaps replay the program's loop structure — so matching whole
// repeated stretches is worth far more than shaving bits per field. Each
// column stores a leading codec byte (kCodecRaw | kCodecLz) and the writer
// keeps whichever is smaller, so pathological inputs never grow beyond
// raw + 1 byte.
//
// LZ body layout: varint uncompressed_size, then alternating
//   varint lit_len | lit bytes | varint (match_len - 4) | varint distance
// ending after a literal run that reaches uncompressed_size (a trailing
// empty run is omitted when a match ends the stream).
// --------------------------------------------------------------------------

constexpr uint8_t kCodecRaw = 0;
constexpr uint8_t kCodecLz = 1;
constexpr size_t kLzMinMatch = 4;

[[noreturn]] void corrupt(const std::string& what);

std::vector<uint8_t> lz_compress(const uint8_t* src, size_t n) {
  std::vector<uint8_t> out;
  put_varint(out, n);
  constexpr uint32_t kHashBits = 15;
  std::vector<int64_t> head(size_t{1} << kHashBits, -1);
  const auto hash4 = [&](size_t i) {
    uint32_t v;
    std::memcpy(&v, src + i, 4);
    return (v * 2654435761u) >> (32 - kHashBits);
  };
  size_t i = 0;
  size_t lit_start = 0;
  const auto flush_lits = [&](size_t end) {
    put_varint(out, end - lit_start);
    out.insert(out.end(), src + lit_start, src + end);
  };
  while (i + kLzMinMatch <= n) {
    const uint32_t h = hash4(i);
    const int64_t cand = head[h];
    head[h] = static_cast<int64_t>(i);
    size_t match_len = 0;
    if (cand >= 0 &&
        std::memcmp(src + cand, src + i, kLzMinMatch) == 0) {
      size_t l = kLzMinMatch;
      while (i + l < n && src[static_cast<size_t>(cand) + l] == src[i + l]) {
        ++l;
      }
      match_len = l;
    }
    if (match_len >= kLzMinMatch) {
      flush_lits(i);
      put_varint(out, match_len - kLzMinMatch);
      put_varint(out, i - static_cast<size_t>(cand));
      for (size_t k = 1; k < match_len && i + k + kLzMinMatch <= n; ++k) {
        head[hash4(i + k)] = static_cast<int64_t>(i + k);
      }
      i += match_len;
      lit_start = i;
    } else {
      ++i;
    }
  }
  if (lit_start < n) flush_lits(n);
  return out;
}

std::vector<uint8_t> lz_decompress(const uint8_t* src, size_t n) {
  size_t pos = 0;
  const auto get_varint = [&]() -> uint64_t {
    uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (pos >= n) corrupt("truncated lz column");
      const uint8_t c = src[pos++];
      if (shift == 63 && (c & 0x7f) > 1) corrupt("lz varint overflow");
      v |= static_cast<uint64_t>(c & 0x7f) << shift;
      if ((c & 0x80) == 0) return v;
      shift += 7;
      if (shift > 63) corrupt("lz varint overflow");
    }
  };
  const uint64_t raw_size = get_varint();
  // Column payloads are bounded by the block they came from; a huge size
  // here is corruption, not data.
  if (raw_size > (uint64_t{1} << 32)) corrupt("lz column size implausible");
  std::vector<uint8_t> out;
  out.reserve(raw_size);
  while (out.size() < raw_size) {
    const uint64_t lit = get_varint();
    if (lit > raw_size - out.size() || lit > n - pos) {
      corrupt("lz literal run overruns");
    }
    out.insert(out.end(), src + pos, src + pos + lit);
    pos += lit;
    if (out.size() >= raw_size) break;
    const uint64_t mlen = get_varint() + kLzMinMatch;
    const uint64_t dist = get_varint();
    if (dist == 0 || dist > out.size() || mlen > raw_size - out.size()) {
      corrupt("lz match out of range");
    }
    for (uint64_t k = 0; k < mlen; ++k) {
      out.push_back(out[out.size() - dist]);
    }
  }
  if (pos != n) corrupt("lz column length mismatch");
  return out;
}

/// Packs one bit per push, LSB-first within each byte.
class BitPacker {
 public:
  void push(bool bit) {
    if ((n_ & 7) == 0) bytes_.push_back(0);
    if (bit) bytes_.back() |= static_cast<uint8_t>(1u << (n_ & 7));
    ++n_;
  }
  [[nodiscard]] const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
  size_t n_ = 0;
};

/// Packs one 2-bit code per push, low pairs first within each byte.
class CodePacker {
 public:
  void push(uint8_t code) {
    if ((n_ & 3) == 0) bytes_.push_back(0);
    bytes_.back() |= static_cast<uint8_t>((code & 3u) << ((n_ & 3) * 2));
    ++n_;
  }
  [[nodiscard]] const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
  size_t n_ = 0;
};

[[noreturn]] void corrupt(const std::string& what) {
  throw CorruptFileError("CFIRTRC2: " + what);
}

/// Read cursor over one column's payload slice. All three shapes throw
/// CorruptFileError on overrun and verify exact consumption at the end, so
/// a block whose column lengths disagree with its contents is rejected
/// even when its CRC was forged to match.
struct ColumnSlice {
  const uint8_t* p = nullptr;
  size_t n = 0;
};

class BitCursor {
 public:
  explicit BitCursor(ColumnSlice s) : s_(s) {}
  bool next() {
    if (i_ >= s_.n * 8) corrupt("bitmap column overrun");
    const bool b = ((s_.p[i_ >> 3] >> (i_ & 7)) & 1) != 0;
    ++i_;
    return b;
  }
  void check_done() const {
    if ((i_ + 7) / 8 != s_.n) corrupt("bitmap column length mismatch");
  }

 private:
  ColumnSlice s_;
  size_t i_ = 0;
};

class CodeCursor {
 public:
  explicit CodeCursor(ColumnSlice s) : s_(s) {}
  uint8_t next() {
    if (i_ >= s_.n * 4) corrupt("code column overrun");
    const uint8_t c = (s_.p[i_ >> 2] >> ((i_ & 3) * 2)) & 3;
    ++i_;
    return c;
  }
  void check_done() const {
    if ((i_ + 3) / 4 != s_.n) corrupt("code column length mismatch");
  }

 private:
  ColumnSlice s_;
  size_t i_ = 0;
};

class VarintCursor {
 public:
  explicit VarintCursor(ColumnSlice s) : s_(s) {}
  uint64_t next() {
    uint64_t v = 0;
    int shift = 0;
    for (;;) {
      if (pos_ >= s_.n) corrupt("truncated varint column");
      const uint8_t c = s_.p[pos_++];
      if (shift == 63 && (c & 0x7f) > 1) corrupt("varint overflow");
      v |= static_cast<uint64_t>(c & 0x7f) << shift;
      if ((c & 0x80) == 0) return v;
      shift += 7;
      if (shift > 63) corrupt("varint overflow");
    }
  }
  void check_done() const {
    if (pos_ != s_.n) corrupt("varint column length mismatch");
  }

 private:
  ColumnSlice s_;
  size_t pos_ = 0;
};

/// Serializes the CFIRTRC2 header.
std::vector<uint8_t> encode_header(const TraceMeta& meta, uint32_t block_len,
                                   uint64_t record_count,
                                   uint64_t final_digest,
                                   const std::array<uint64_t,
                                                    isa::kNumLogicalRegs>&
                                       final_regs) {
  std::vector<uint8_t> out(kTraceMagicV2, kTraceMagicV2 + 8);
  put_u32(out, kTraceVersionV2);
  put_u32(out, block_len);
  put_u64(out, record_count);
  put_u64(out, meta.base_pc);
  put_u64(out, final_digest);
  for (const uint64_t r : final_regs) put_u64(out, r);
  put_u32(out, meta.scale);
  put_u32(out, static_cast<uint32_t>(meta.workload.size()));
  out.insert(out.end(), meta.workload.begin(), meta.workload.end());
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Reader side
// ---------------------------------------------------------------------------

FileView open_file(const std::string& path) {
  FileView f;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) throw std::runtime_error("TraceReader: cannot open " + path);
    const std::streamoff size = in.tellg();
    f.bytes.resize(static_cast<size_t>(size));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(f.bytes.data()), size);
    if (!in) corrupt("short read of " + path);
  }
  const std::vector<uint8_t>& b = f.bytes;
  if (b.size() < 8 || std::memcmp(b.data(), kTraceMagicV2, 8) != 0) {
    if (b.size() >= 8 && std::memcmp(b.data(), kRetiredTraceMagic, 8) == 0) {
      throw VersionError(
          "TraceReader: the row-oriented CFIRTRC1 format is no longer read; "
          "re-record " + path + " as CFIRTRC2");
    }
    throw BadMagicError("TraceReader: bad magic in " + path);
  }
  constexpr size_t kFixedHeader =
      8 + 4 + 4 + 8 + 8 + 8 + 8 * isa::kNumLogicalRegs + 4 + 4;
  if (b.size() < kFixedHeader) corrupt("truncated header in " + path);
  const uint32_t version = rd_u32(b.data() + 8);
  if (version != kTraceVersionV2) {
    throw VersionError("TraceReader: unsupported version " +
                       std::to_string(version) + " in " + path);
  }
  f.block_len = rd_u32(b.data() + 12);
  f.record_count = rd_u64(b.data() + 16);
  if (f.record_count == kUnfinishedRecordCount) {
    throw std::runtime_error(
        "TraceReader: unfinished trace (recording was interrupted before "
        "finish()) in " + path);
  }
  if (f.block_len == 0) corrupt("zero block length in " + path);
  f.meta.base_pc = rd_u64(b.data() + 24);
  f.final_digest = rd_u64(b.data() + 32);
  for (int i = 0; i < isa::kNumLogicalRegs; ++i) {
    f.final_regs[static_cast<size_t>(i)] =
        rd_u64(b.data() + 40 + 8 * static_cast<size_t>(i));
  }
  const size_t post_regs = 40 + 8 * static_cast<size_t>(isa::kNumLogicalRegs);
  f.meta.scale = rd_u32(b.data() + post_regs);
  const uint32_t name_len = rd_u32(b.data() + post_regs + 4);
  if (name_len > 4096) {
    corrupt("corrupt header (name length " + std::to_string(name_len) +
            ") in " + path);
  }
  const size_t header_size = kFixedHeader + name_len;
  if (b.size() < header_size + kIndexTailBytes) {
    corrupt("truncated file " + path);
  }
  f.meta.workload.assign(
      reinterpret_cast<const char*>(b.data() + kFixedHeader), name_len);

  // Parse the footers back to front: whole-file CRC (present but not
  // verified here — per-block CRCs and the index CRC below localize
  // integrity so open stays O(index)), index CRC, index magic, then the
  // two u64 index fields and the entries.
  const size_t fsize = b.size();
  if (std::memcmp(b.data() + fsize - 8, kCrcFooterMagic, 4) != 0) {
    corrupt("missing whole-file CRC footer in " + path);
  }
  if (std::memcmp(b.data() + fsize - 16, kCrcFooterMagic, 4) != 0) {
    corrupt("missing index CRC footer in " + path);
  }
  if (std::memcmp(b.data() + fsize - 24, kIndexMagic, 8) != 0) {
    corrupt("missing or corrupt index footer in " + path);
  }
  const uint64_t n_blocks = rd_u64(b.data() + fsize - 40);
  f.index_offset = rd_u64(b.data() + fsize - 32);
  if (f.index_offset < header_size ||
      f.index_offset + n_blocks * kIndexEntryBytes + kIndexTailBytes !=
          fsize) {
    corrupt("index footer geometry mismatch in " + path);
  }
  const uint32_t want_icrc = rd_u32(b.data() + fsize - 12);
  uint32_t icrc = util::crc32(b.data(), header_size);
  icrc = util::crc32(b.data() + f.index_offset, fsize - 16 - f.index_offset,
                     icrc);
  if (icrc != want_icrc) corrupt("index CRC mismatch in " + path);

  f.blocks.resize(n_blocks);
  uint64_t expect_first = 0;
  uint64_t expect_offset = header_size;
  for (size_t i = 0; i < n_blocks; ++i) {
    const uint8_t* e = b.data() + f.index_offset + i * kIndexEntryBytes;
    f.blocks[i].first_record = rd_u64(e);
    f.blocks[i].offset = rd_u64(e + 8);
    f.blocks[i].count = rd_u32(e + 16);
    // Blocks are written back to back, so each entry must pick up exactly
    // where the previous block ended and the last must end at the index.
    if (f.blocks[i].first_record != expect_first ||
        f.blocks[i].offset != expect_offset || f.blocks[i].count == 0 ||
        f.blocks[i].count > f.block_len) {
      corrupt("inconsistent block index in " + path);
    }
    const uint64_t end = (i + 1 < n_blocks)
                             ? rd_u64(b.data() + f.index_offset +
                                      (i + 1) * kIndexEntryBytes + 8)
                             : f.index_offset;
    if (end < f.blocks[i].offset + kBlockFixedBytes + kCrcFooterBytes) {
      corrupt("undersized block in " + path);
    }
    expect_first += f.blocks[i].count;
    expect_offset = end;
  }
  if (expect_first != f.record_count) {
    corrupt("block index does not cover the record count in " + path);
  }
  return f;
}

std::vector<isa::StepEvent> decode_block(const FileView& file, size_t b) {
  if (b >= file.blocks.size()) {
    throw std::out_of_range("decode_block: block " + std::to_string(b) +
                            " of " + std::to_string(file.blocks.size()));
  }
  const BlockIndexEntry& entry = file.blocks[b];
  const uint64_t end = (b + 1 < file.blocks.size())
                           ? file.blocks[b + 1].offset
                           : file.index_offset;
  const uint8_t* base = file.bytes.data() + entry.offset;
  const size_t avail = static_cast<size_t>(end - entry.offset);
  if (avail < kBlockFixedBytes + kCrcFooterBytes) corrupt("truncated block");

  const uint32_t n = rd_u32(base);
  if (n != entry.count) corrupt("block record count disagrees with index");
  uint64_t pred_pc = rd_u64(base + 4);
  uint64_t load_addr = rd_u64(base + 12);
  uint64_t load_delta = rd_u64(base + 20);
  uint64_t store_addr = rd_u64(base + 28);
  uint64_t store_delta = rd_u64(base + 36);

  std::array<ColumnSlice, kTraceV2Columns> stored;
  size_t off = kBlockFixedBytes;
  for (size_t c = 0; c < kTraceV2Columns; ++c) {
    const uint32_t len = rd_u32(base + 44 + 4 * c);
    if (len > avail - kCrcFooterBytes || off + len > avail - kCrcFooterBytes) {
      corrupt("block column lengths exceed the block");
    }
    stored[c] = {base + off, len};
    off += len;
  }
  if (off + kCrcFooterBytes != avail) {
    corrupt("block column lengths disagree with the block size");
  }
  if (std::memcmp(base + off, kCrcFooterMagic, 4) != 0 ||
      rd_u32(base + off + 4) != util::crc32(base, off)) {
    corrupt("block CRC mismatch");
  }

  // Unframe each column: leading codec byte, body either raw or LZ. The
  // scratch vectors live for the whole decode so the cursors can point at
  // decompressed bytes.
  std::array<ColumnSlice, kTraceV2Columns> cols;
  std::array<std::vector<uint8_t>, kTraceV2Columns> scratch;
  for (size_t c = 0; c < kTraceV2Columns; ++c) {
    if (stored[c].n == 0) continue;
    const uint8_t codec = stored[c].p[0];
    if (codec == kCodecRaw) {
      cols[c] = {stored[c].p + 1, stored[c].n - 1};
    } else if (codec == kCodecLz) {
      scratch[c] = lz_decompress(stored[c].p + 1, stored[c].n - 1);
      cols[c] = {scratch[c].data(), scratch[c].size()};
    } else {
      corrupt("unknown column codec");
    }
  }

  CodeCursor kinds(cols[0]);
  BitCursor pc_flags(cols[1]);
  VarintCursor pc_deltas(cols[2]);
  BitCursor taken(cols[3]);
  BitCursor target_flags(cols[4]);
  VarintCursor target_deltas(cols[5]);
  BitCursor load_flags(cols[6]);
  VarintCursor load_deltas(cols[7]);
  BitCursor store_flags(cols[8]);
  VarintCursor store_deltas(cols[9]);
  CodeCursor mem_sizes(cols[10]);

  std::vector<isa::StepEvent> out(n);
  for (uint32_t i = 0; i < n; ++i) {
    isa::StepEvent& rec = out[i];
    rec.kind = static_cast<isa::EventKind>(kinds.next());
    rec.pc = pred_pc;
    if (pc_flags.next()) rec.pc += scale_decode(pc_deltas.next());
    if (rec.kind == isa::EventKind::kBranch) {
      rec.taken = taken.next();
      rec.next_pc = rec.pc + isa::kInstBytes;
      if (target_flags.next()) {
        rec.next_pc += scale_decode(target_deltas.next());
      }
      pred_pc = rec.next_pc;
    } else {
      pred_pc = rec.pc + isa::kInstBytes;
      if (rec.kind == isa::EventKind::kLoad) {
        if (load_flags.next()) {
          load_delta += static_cast<uint64_t>(unzigzag(load_deltas.next()));
        }
        load_addr += load_delta;
        rec.addr = load_addr;
        rec.size = static_cast<uint8_t>(1u << mem_sizes.next());
      } else if (rec.kind == isa::EventKind::kStore) {
        if (store_flags.next()) {
          store_delta += static_cast<uint64_t>(unzigzag(store_deltas.next()));
        }
        store_addr += store_delta;
        rec.addr = store_addr;
        rec.size = static_cast<uint8_t>(1u << mem_sizes.next());
      }
    }
  }
  kinds.check_done();
  pc_flags.check_done();
  pc_deltas.check_done();
  taken.check_done();
  target_flags.check_done();
  target_deltas.check_done();
  load_flags.check_done();
  load_deltas.check_done();
  store_flags.check_done();
  store_deltas.check_done();
  mem_sizes.check_done();

  obs::Registry& reg = obs::Registry::instance();
  reg.counter("trace.blocks_read").increment();
  reg.counter("trace.decode_records").add(n);
  reg.counter("trace.decode_bytes").add(avail);
  return out;
}

std::array<uint64_t, kTraceV2Columns> column_bytes(const FileView& file) {
  std::array<uint64_t, kTraceV2Columns> sums{};
  for (const BlockIndexEntry& entry : file.blocks) {
    const uint8_t* base = file.bytes.data() + entry.offset;
    for (size_t c = 0; c < kTraceV2Columns; ++c) {
      sums[c] += rd_u32(base + 44 + 4 * c);
    }
  }
  return sums;
}

// ---------------------------------------------------------------------------
// Writer side
// ---------------------------------------------------------------------------

BlockWriter::BlockWriter(const std::string& path, const TraceMeta& meta,
                         uint32_t block_len)
    : out_(path, std::ios::binary | std::ios::trunc),
      path_(path),
      meta_(meta),
      block_len_(block_len),
      pred_pc_(meta.base_pc) {
  if (!out_) {
    throw std::runtime_error("TraceWriter: cannot open " + path);
  }
  if (block_len_ == 0) {
    throw std::invalid_argument("TraceWriter: zero block length");
  }
  pending_.reserve(block_len_);
  // Sentinel header; finish() rewrites it with the real counts. An
  // unfinished file keeps the sentinel, so readers reject it.
  const std::vector<uint8_t> hdr =
      encode_header(meta_, block_len_, kUnfinishedRecordCount, 0, {});
  out_.write(reinterpret_cast<const char*>(hdr.data()),
             static_cast<std::streamsize>(hdr.size()));
}

void BlockWriter::append(const isa::StepEvent& ev) {
  pending_.push_back(ev);
  if (pending_.size() >= block_len_) flush_block();
}

void BlockWriter::flush_block() {
  if (pending_.empty()) return;

  std::vector<uint8_t> block;
  put_u32(block, static_cast<uint32_t>(pending_.size()));
  put_u64(block, pred_pc_);
  put_u64(block, load_addr_);
  put_u64(block, load_delta_);
  put_u64(block, store_addr_);
  put_u64(block, store_delta_);

  CodePacker kinds;
  BitPacker pc_flags;
  std::vector<uint8_t> pc_deltas;
  BitPacker taken;
  BitPacker target_flags;
  std::vector<uint8_t> target_deltas;
  BitPacker load_flags;
  std::vector<uint8_t> load_deltas;
  BitPacker store_flags;
  std::vector<uint8_t> store_deltas;
  CodePacker mem_sizes;

  for (const isa::StepEvent& rec : pending_) {
    kinds.push(static_cast<uint8_t>(rec.kind));
    const uint64_t d = rec.pc - pred_pc_;
    pc_flags.push(d != 0);
    if (d != 0) put_varint(pc_deltas, scale_encode(d));
    if (rec.kind == isa::EventKind::kBranch) {
      taken.push(rec.taken);
      const uint64_t td = rec.next_pc - (rec.pc + isa::kInstBytes);
      target_flags.push(td != 0);
      if (td != 0) put_varint(target_deltas, scale_encode(td));
      pred_pc_ = rec.next_pc;
    } else {
      pred_pc_ = rec.pc + isa::kInstBytes;
      if (rec.kind == isa::EventKind::kLoad) {
        const uint64_t delta = rec.addr - load_addr_;
        const uint64_t dd = delta - load_delta_;
        load_flags.push(dd != 0);
        if (dd != 0) {
          put_varint(load_deltas, zigzag(static_cast<int64_t>(dd)));
        }
        load_delta_ = delta;
        load_addr_ = rec.addr;
        mem_sizes.push(log2_size(rec.size));
      } else if (rec.kind == isa::EventKind::kStore) {
        const uint64_t delta = rec.addr - store_addr_;
        const uint64_t dd = delta - store_delta_;
        store_flags.push(dd != 0);
        if (dd != 0) {
          put_varint(store_deltas, zigzag(static_cast<int64_t>(dd)));
        }
        store_delta_ = delta;
        store_addr_ = rec.addr;
        mem_sizes.push(log2_size(rec.size));
      }
    }
  }

  const std::array<const std::vector<uint8_t>*, kTraceV2Columns> raw = {
      &kinds.bytes(),        &pc_flags.bytes(),    &pc_deltas,
      &taken.bytes(),        &target_flags.bytes(), &target_deltas,
      &load_flags.bytes(),   &load_deltas,          &store_flags.bytes(),
      &store_deltas,         &mem_sizes.bytes()};
  // Each non-empty column is framed as a codec byte plus the body; the
  // writer keeps whichever of raw / LZ is smaller. Empty columns stay at
  // zero bytes (no codec byte).
  std::array<std::vector<uint8_t>, kTraceV2Columns> payloads;
  for (size_t c = 0; c < kTraceV2Columns; ++c) {
    const std::vector<uint8_t>& col = *raw[c];
    if (col.empty()) continue;
    std::vector<uint8_t> lz = lz_compress(col.data(), col.size());
    if (lz.size() < col.size()) {
      payloads[c].reserve(lz.size() + 1);
      payloads[c].push_back(kCodecLz);
      payloads[c].insert(payloads[c].end(), lz.begin(), lz.end());
    } else {
      payloads[c].reserve(col.size() + 1);
      payloads[c].push_back(kCodecRaw);
      payloads[c].insert(payloads[c].end(), col.begin(), col.end());
    }
  }
  for (const auto& col : payloads) {
    put_u32(block, static_cast<uint32_t>(col.size()));
  }
  for (const auto& col : payloads) {
    block.insert(block.end(), col.begin(), col.end());
  }
  const uint32_t crc = util::crc32(block.data(), block.size());
  block.insert(block.end(), kCrcFooterMagic, kCrcFooterMagic + 4);
  put_u32(block, crc);

  index_.push_back({records_, static_cast<uint64_t>(out_.tellp()),
                    static_cast<uint32_t>(pending_.size())});
  out_.write(reinterpret_cast<const char*>(block.data()),
             static_cast<std::streamsize>(block.size()));
  records_ += pending_.size();
  pending_.clear();
}

void BlockWriter::finish(
    const std::array<uint64_t, isa::kNumLogicalRegs>& final_regs,
    uint64_t final_digest) {
  flush_block();
  const uint64_t index_offset = static_cast<uint64_t>(out_.tellp());

  const std::vector<uint8_t> hdr = encode_header(
      meta_, block_len_, records_, final_digest, final_regs);

  std::vector<uint8_t> idx;
  idx.reserve(index_.size() * kIndexEntryBytes + 24);
  for (const BlockIndexEntry& e : index_) {
    put_u64(idx, e.first_record);
    put_u64(idx, e.offset);
    put_u32(idx, e.count);
  }
  put_u64(idx, static_cast<uint64_t>(index_.size()));
  put_u64(idx, index_offset);
  idx.insert(idx.end(), kIndexMagic, kIndexMagic + 8);

  // The index CRC covers the final header plus the index region, so a
  // seeked open validates everything it trusts without touching blocks.
  uint32_t icrc = util::crc32(hdr.data(), hdr.size());
  icrc = util::crc32(idx.data(), idx.size(), icrc);
  idx.insert(idx.end(), kCrcFooterMagic, kCrcFooterMagic + 4);
  put_u32(idx, icrc);

  out_.write(reinterpret_cast<const char*>(idx.data()),
             static_cast<std::streamsize>(idx.size()));
  out_.seekp(0);
  out_.write(reinterpret_cast<const char*>(hdr.data()),
             static_cast<std::streamsize>(hdr.size()));
  out_.close();
  if (!out_) throw std::runtime_error("TraceWriter: write failed");
  // Standard whole-file footer last, so blob-level tools (read_blob_file)
  // see a well-formed CRC1 blob.
  append_crc_footer(path_);
}

}  // namespace cfir::trace::v2

namespace cfir::trace {

const char* trace_v2_column_name(size_t col) {
  static constexpr const char* kNames[kTraceV2Columns] = {
      "kinds",        "pc_flags",      "pc_deltas",   "taken",
      "target_flags", "target_deltas", "load_flags",  "load_deltas",
      "store_flags",  "store_deltas",  "mem_sizes"};
  return col < kTraceV2Columns ? kNames[col] : "?";
}

}  // namespace cfir::trace
