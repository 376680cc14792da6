// Trace capture / replay: a compact, versioned binary format for the
// committed instruction stream (PCs, branch outcomes, load/store
// addresses) of one workload run.
//
// Motivation (see README "Trace subsystem"): every figure bench used to
// re-execute each workload from instruction zero. Recording the committed
// stream once makes runs persistable, shareable and replayable — replay
// re-executes the reference interpreter under trace verification, so a
// stored trace doubles as an architectural regression artifact.
//
// Format "CFIRTRC2" (docs/trace-format.md has the byte-level layout,
// src/trace/trace_v2.hpp the codec): a header carrying the workload
// identity, record count, final architectural registers and memory
// digest, then the record stream split into fixed-capacity blocks whose
// fields are stored as independently coded columns. Each block carries
// the coder state it starts from plus its own CRC-32 footer, and the file
// ends in a CRC-protected block index mapping record ranges to file
// offsets, so TraceReader::seek_to lands on a block boundary and decodes
// only from there.
//
// The record count, final registers and memory digest are patched into
// the header by TraceWriter::finish, so a trace file is self-validating:
// replay can check the reconstructed architectural state without
// re-running the original simulation. The retired row-oriented
// "CFIRTRC1" format is recognised only to be rejected (VersionError).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/engine.hpp"
#include "isa/interpreter.hpp"
#include "isa/program.hpp"

namespace cfir::trace {

inline constexpr char kTraceMagicV2[8] = {'C', 'F', 'I', 'R',
                                          'T', 'R', 'C', '2'};
inline constexpr uint32_t kTraceVersionV2 = 2;
/// Default CFIRTRC2 block capacity in records. The header stores the
/// actual value, so readers never assume it.
inline constexpr uint32_t kTraceBlockLen = 65536;
/// Number of per-field columns in a CFIRTRC2 block.
inline constexpr size_t kTraceV2Columns = 11;
/// Display name of CFIRTRC2 column `col` (trace_tool info).
[[nodiscard]] const char* trace_v2_column_name(size_t col);
/// record_count value written at open and replaced by finish(); a file
/// still carrying it was interrupted mid-recording and is rejected.
inline constexpr uint64_t kUnfinishedRecordCount = UINT64_MAX;

namespace v2 {
struct FileView;
class BlockWriter;
}  // namespace v2

/// Directory trace files default into: CFIR_TRACE_DIR, or "." when unset.
[[nodiscard]] std::string env_trace_dir();

enum class RecordKind : uint8_t {
  kPlain = 0,   ///< ALU / jumps / calls / rets
  kBranch = 1,  ///< conditional branch (taken + target recorded)
  kLoad = 2,
  kStore = 3,
};

/// One retired instruction.
struct TraceRecord {
  uint64_t pc = 0;
  RecordKind kind = RecordKind::kPlain;
  bool taken = false;     ///< kBranch only
  uint64_t next_pc = 0;   ///< kBranch only: actual successor pc
  uint64_t addr = 0;      ///< kLoad/kStore only
  uint8_t size = 0;       ///< kLoad/kStore only: access bytes (1/2/4/8)

  bool operator==(const TraceRecord&) const = default;
};

// The engine's retired-instruction events and trace records are the same
// data; the enum values line up by design so conversion is a cast.
static_assert(static_cast<int>(RecordKind::kPlain) ==
              static_cast<int>(isa::EventKind::kPlain));
static_assert(static_cast<int>(RecordKind::kBranch) ==
              static_cast<int>(isa::EventKind::kBranch));
static_assert(static_cast<int>(RecordKind::kLoad) ==
              static_cast<int>(isa::EventKind::kLoad));
static_assert(static_cast<int>(RecordKind::kStore) ==
              static_cast<int>(isa::EventKind::kStore));

[[nodiscard]] inline TraceRecord to_trace_record(const isa::StepEvent& ev) {
  TraceRecord rec;
  rec.pc = ev.pc;
  rec.kind = static_cast<RecordKind>(ev.kind);
  rec.taken = ev.taken;
  rec.next_pc = ev.next_pc;
  rec.addr = ev.addr;
  rec.size = ev.size;
  return rec;
}

/// Workload identity stored in the header so `replay` / `info` can rebuild
/// the program without out-of-band knowledge.
struct TraceMeta {
  std::string workload;
  uint32_t scale = 1;
  uint64_t base_pc = 0;
};

class TraceWriter {
 public:
  /// Creates/truncates `path` and writes the header (counts zeroed).
  /// `block_len` is the block capacity in records (0 = kTraceBlockLen).
  TraceWriter(const std::string& path, const TraceMeta& meta,
              uint32_t block_len = 0);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void append(const TraceRecord& rec);

  /// Patches record count, final registers and memory digest into the
  /// header, appends the block index and the CRC footer, and closes the
  /// file. Idempotent.
  void finish(const std::array<uint64_t, isa::kNumLogicalRegs>& final_regs,
              uint64_t final_digest);

  [[nodiscard]] uint64_t records() const { return records_; }

 private:
  std::unique_ptr<v2::BlockWriter> blocks_;
  uint64_t records_ = 0;
  bool finished_ = false;
};

/// Reads a CFIRTRC2 trace: buffers the file, validates only the header +
/// block index at open, and decodes blocks on demand (CRC-checked per
/// block), which is what makes seek_to cheap.
class TraceReader {
 public:
  /// Opens and validates the header; throws the typed trace/errors.hpp
  /// classes on a bad magic / retired or unknown version / corrupt or
  /// truncated file.
  explicit TraceReader(const std::string& path);
  ~TraceReader();
  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  [[nodiscard]] const TraceMeta& meta() const;
  [[nodiscard]] uint64_t record_count() const;
  [[nodiscard]] uint64_t final_digest() const;
  [[nodiscard]] const std::array<uint64_t, isa::kNumLogicalRegs>&
  final_regs() const;

  /// Reads the next record; returns false at end of stream.
  bool next(TraceRecord& out);

  /// Index of the record the next next() call returns.
  [[nodiscard]] uint64_t position() const { return read_; }

  /// Repositions the stream so the next next() returns record
  /// `inst_index`. `inst_index == record_count()` is a valid end-of-stream
  /// position; anything past it throws std::out_of_range. O(1); the next
  /// next() decodes the covering block.
  void seek_to(uint64_t inst_index);

  /// Block geometry: count of blocks in the file and the block capacity
  /// from the header.
  [[nodiscard]] size_t block_count() const;
  [[nodiscard]] uint32_t block_len() const;
  /// First record index of block `b`.
  [[nodiscard]] uint64_t block_first_record(size_t b) const;
  /// Decodes block `b` after verifying its CRC. Pure and thread-safe —
  /// bbv_from_trace fans block decodes out on the sim::parallel_for pool.
  /// Each call counts one `trace.blocks_read`.
  [[nodiscard]] std::vector<TraceRecord> decode_block(size_t b) const;
  /// Per-column compressed payload bytes summed over all blocks
  /// (trace_tool info).
  [[nodiscard]] std::array<uint64_t, kTraceV2Columns> column_bytes() const;

 private:
  void drain_telemetry();

  std::unique_ptr<v2::FileView> file_;
  uint64_t read_ = 0;
  std::vector<TraceRecord> block_cache_;  ///< decoded current block
  size_t cur_block_ = SIZE_MAX;           ///< which block is cached
  int64_t open_us_ = 0;     ///< decode-throughput telemetry epoch
  bool telemetry_done_ = false;
};

/// Runs `program` on the functional engine (fresh memory, data image
/// applied), recording every retired instruction to `path`. Stops at HALT
/// or after `max_insts`. Returns the final architectural state.
/// `block_len` passes through to TraceWriter. The name predates the engine
/// and stays because perfbench calls it.
isa::InterpResult record_interpreter(const isa::Program& program,
                                     const std::string& path,
                                     const TraceMeta& meta,
                                     uint64_t max_insts = UINT64_MAX,
                                     uint32_t block_len = 0);

/// Trace-driven re-execution: replays `program` on the interpreter while
/// verifying every retired instruction against the stored records, then
/// checks the final registers and memory digest against the header.
struct ReplayResult {
  bool match = false;
  uint64_t replayed = 0;        ///< records consumed
  std::string mismatch;         ///< empty when match
  isa::InterpResult final_state;
};
ReplayResult replay_trace(const isa::Program& program,
                          const std::string& path);
/// Same, driving an already-opened reader (no record consumed yet) —
/// callers that inspected meta() first avoid re-parsing the header.
ReplayResult replay_trace(const isa::Program& program, TraceReader& reader);

}  // namespace cfir::trace
