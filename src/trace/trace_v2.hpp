// CFIRTRC2 internals: the columnar, block-compressed, seekable trace
// codec behind the TraceWriter/TraceReader facade (trace/trace.hpp owns
// the public API and the format constants; docs/trace-format.md has the
// full byte-level layout).
//
// The committed-record stream is split into fixed-capacity blocks
// (`block_len` records, default trace.hpp kTraceBlockLen) and each block
// stores its records as independently coded per-field columns — kinds,
// pc-delta flags + varints, branch taken/target bits, per-kind memory
// address delta-of-delta streams, access widths. Every block carries the
// inter-block coder state it starts from (predicted pc, last load/store
// address and stride), so any block decodes with no earlier block — that
// is what makes the format seekable. Integrity is layered the same way:
// each block ends in its own CRC-32 footer (blob.hpp "CRC1" form),
// the block index + header are covered by an index CRC in the footer,
// and the file still ends with the standard whole-file CRC footer for
// blob-level tooling — which TraceReader deliberately does NOT verify at
// open, so opening and seeking stay O(index), never O(file) decode work.
#pragma once

#include <array>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace cfir::trace::v2 {

/// One block of the index footer: records [first_record,
/// first_record + count) live at absolute file offset `offset`.
struct BlockIndexEntry {
  uint64_t first_record = 0;
  uint64_t offset = 0;
  uint32_t count = 0;
};

/// Serialized size of one index entry (u64 + u64 + u32).
inline constexpr size_t kIndexEntryBytes = 20;

/// A validated, fully buffered CFIRTRC2 file: header fields, the block
/// index, and the raw bytes blocks decode out of. Opening validates the
/// header, the index footer and its CRC — but no block payload; those are
/// CRC-checked individually by decode_block, so a reader that seeks only
/// pays for the blocks it touches.
struct FileView {
  TraceMeta meta;
  uint64_t record_count = 0;
  uint64_t final_digest = 0;
  std::array<uint64_t, isa::kNumLogicalRegs> final_regs{};
  uint32_t block_len = 0;     ///< block capacity in records
  uint64_t index_offset = 0;  ///< where the blocks region ends
  std::vector<BlockIndexEntry> blocks;
  std::vector<uint8_t> bytes;  ///< the entire file, one read at open
};

/// Opens and validates `path` as CFIRTRC2. Throws BadMagicError /
/// VersionError (also for the retired CFIRTRC1 magic) / CorruptFileError
/// per the trace/errors.hpp contract; an unfinished file (sentinel record
/// count) throws std::runtime_error.
[[nodiscard]] FileView open_file(const std::string& path);

/// Decodes block `b` after verifying its CRC footer (CorruptFileError on
/// any mismatch or malformed column). Pure function of the FileView —
/// safe to call from parallel workers. Counts one `trace.blocks_read`
/// plus the block's records/bytes into the decode counters.
[[nodiscard]] std::vector<isa::StepEvent> decode_block(const FileView& file,
                                                       size_t b);

/// Per-column compressed payload bytes summed over every block (walks
/// only the block headers — no payload decode). Order matches
/// trace_v2_column_name.
[[nodiscard]] std::array<uint64_t, kTraceV2Columns> column_bytes(
    const FileView& file);

/// Streaming CFIRTRC2 writer: buffers `block_len` records, encodes and
/// flushes them as one columnar block, and on finish() writes the index
/// footer, rewrites the header with the final counts, and appends the
/// whole-file CRC footer. Owned by the TraceWriter facade.
class BlockWriter {
 public:
  BlockWriter(const std::string& path, const TraceMeta& meta,
              uint32_t block_len);

  void append(const isa::StepEvent& ev);
  void finish(const std::array<uint64_t, isa::kNumLogicalRegs>& final_regs,
              uint64_t final_digest);

 private:
  void flush_block();

  std::ofstream out_;
  std::string path_;
  TraceMeta meta_;
  uint32_t block_len_;
  uint64_t records_ = 0;
  std::vector<isa::StepEvent> pending_;
  std::vector<BlockIndexEntry> index_;

  // Inter-block coder state, snapshotted into each block's header so the
  // block decodes standalone.
  uint64_t pred_pc_;
  uint64_t load_addr_ = 0;
  uint64_t load_delta_ = 0;
  uint64_t store_addr_ = 0;
  uint64_t store_delta_ = 0;
};

}  // namespace cfir::trace::v2
