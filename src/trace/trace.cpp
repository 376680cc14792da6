#include "trace/trace.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>

#include "isa/engine.hpp"
#include "mem/main_memory.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "trace/trace_v2.hpp"

namespace cfir::trace {

// ---------------------------------------------------------------------------
// TraceWriter
// ---------------------------------------------------------------------------

TraceWriter::TraceWriter(const std::string& path, const TraceMeta& meta,
                         uint32_t block_len)
    : blocks_(std::make_unique<v2::BlockWriter>(
          path, meta, block_len == 0 ? kTraceBlockLen : block_len)) {}

// Out of line: v2::BlockWriter is complete only here. An unfinished trace
// keeps the sentinel record count written at open, so TraceReader rejects
// it instead of reading a truncated stream.
TraceWriter::~TraceWriter() = default;

void TraceWriter::append(const isa::StepEvent& ev) {
  blocks_->append(ev);
  ++records_;
}

void TraceWriter::finish(
    const std::array<uint64_t, isa::kNumLogicalRegs>& final_regs,
    uint64_t final_digest) {
  if (finished_) return;
  blocks_->finish(final_regs, final_digest);
  finished_ = true;
}

// ---------------------------------------------------------------------------
// TraceReader
// ---------------------------------------------------------------------------

TraceReader::TraceReader(const std::string& path)
    : file_(std::make_unique<v2::FileView>(v2::open_file(path))),
      open_us_(std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count()) {}

TraceReader::~TraceReader() = default;

const TraceMeta& TraceReader::meta() const { return file_->meta; }
uint64_t TraceReader::record_count() const { return file_->record_count; }
uint64_t TraceReader::final_digest() const { return file_->final_digest; }
const std::array<uint64_t, isa::kNumLogicalRegs>& TraceReader::final_regs()
    const {
  return file_->final_regs;
}

void TraceReader::drain_telemetry() {
  // Decode-throughput telemetry, settled once per fully drained stream
  // (never per record — next() is the replay hot path). Records and bytes
  // are counted per decoded block instead.
  if (telemetry_done_) return;
  telemetry_done_ = true;
  const int64_t now_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  obs::Registry::instance()
      .histogram("trace.decode_us")
      .observe(static_cast<uint64_t>(std::max<int64_t>(0, now_us - open_us_)));
}

bool TraceReader::next(isa::StepEvent& out) {
  if (read_ >= file_->record_count) {
    drain_telemetry();
    return false;
  }
  // Serve out of the cached block, decoding the covering block on demand —
  // a seek_to only pays for blocks it actually reads into.
  const std::vector<v2::BlockIndexEntry>& blocks = file_->blocks;
  if (cur_block_ == SIZE_MAX || read_ < blocks[cur_block_].first_record ||
      read_ >= blocks[cur_block_].first_record + blocks[cur_block_].count) {
    const auto it = std::upper_bound(
        blocks.begin(), blocks.end(), read_,
        [](uint64_t r, const v2::BlockIndexEntry& e) {
          return r < e.first_record;
        });
    cur_block_ = static_cast<size_t>(it - blocks.begin()) - 1;
    block_cache_ = v2::decode_block(*file_, cur_block_);
  }
  out = block_cache_[read_ - blocks[cur_block_].first_record];
  ++read_;
  return true;
}

void TraceReader::seek_to(uint64_t inst_index) {
  if (inst_index > file_->record_count) {
    throw std::out_of_range(
        "TraceReader::seek_to(" + std::to_string(inst_index) +
        ") past record count " + std::to_string(file_->record_count));
  }
  read_ = inst_index;
}

size_t TraceReader::block_count() const { return file_->blocks.size(); }

uint32_t TraceReader::block_len() const { return file_->block_len; }

uint64_t TraceReader::block_first_record(size_t b) const {
  if (b >= file_->blocks.size()) {
    throw std::out_of_range("TraceReader::block_first_record(" +
                            std::to_string(b) + ")");
  }
  return file_->blocks[b].first_record;
}

std::vector<isa::StepEvent> TraceReader::decode_block(size_t b) const {
  return v2::decode_block(*file_, b);
}

std::array<uint64_t, kTraceV2Columns> TraceReader::column_bytes() const {
  return v2::column_bytes(*file_);
}

// ---------------------------------------------------------------------------
// Capture / replay drivers
// ---------------------------------------------------------------------------

isa::InterpResult record_interpreter(const isa::Program& program,
                                     const std::string& path,
                                     const TraceMeta& meta,
                                     uint64_t max_insts, uint32_t block_len) {
  obs::Span span("trace.record");
  TraceMeta m = meta;
  m.base_pc = program.base();
  TraceWriter writer(path, m, block_len);

  // The engine writes the Interpreter's record stream a chunk at a time,
  // so the trace bytes are the oracle's (Golden.RecordedTraceBytes pins
  // them). A chunk of 4Ki events (128 KiB) stays in cache while the
  // writer copies it into its block.
  mem::MainMemory memory;
  isa::load_data_image(program, memory);
  isa::FunctionalEngine engine(program, memory);
  constexpr uint64_t kChunk = 4096;
  std::vector<isa::StepEvent> chunk(kChunk);
  for (uint64_t left = max_insts; left > 0;) {
    const uint64_t n = engine.run_into(chunk.data(), std::min(left, kChunk));
    if (n == 0) break;
    for (uint64_t i = 0; i < n; ++i) writer.append(chunk[i]);
    left -= n;
  }

  isa::InterpResult r;
  r.executed = engine.executed();
  r.halted = engine.halted();
  r.regs = engine.regs();
  r.mem_digest = memory.digest();
  writer.finish(r.regs, r.mem_digest);
  return r;
}

ReplayResult replay_trace(const isa::Program& program,
                          const std::string& path) {
  TraceReader reader(path);
  return replay_trace(program, reader);
}

ReplayResult replay_trace(const isa::Program& program, TraceReader& reader) {
  obs::Span span("trace.replay");
  ReplayResult result;
  std::ostringstream why;

  // Replay stays on the reference Interpreter deliberately: verification
  // must stop at the exact diverging instruction (the run cap below counts
  // consumed records), and the trace is checked against the oracle, not
  // against the engine that recorded it.
  mem::MainMemory memory;
  isa::load_data_image(program, memory);
  isa::Interpreter interp(program, memory);

  bool diverged = false;
  interp.on_retire = [&](const isa::StepEvent& live) {
    if (diverged) return;
    isa::StepEvent stored;
    if (!reader.next(stored)) {
      why << "trace ended early at live instruction " << result.replayed
          << "; ";
      diverged = true;
      return;
    }
    if (!(stored == live)) {
      why << "record " << result.replayed << " mismatch: stored pc=0x"
          << std::hex << stored.pc << " live pc=0x" << live.pc << std::dec
          << " stored kind=" << static_cast<int>(stored.kind)
          << " live kind=" << static_cast<int>(live.kind) << "; ";
      diverged = true;
      return;
    }
    ++result.replayed;
  };

  // A trace may have been capped at CFIR_MAX_INSTS, so replay exactly the
  // recorded prefix rather than running the program to completion.
  while (!diverged && result.replayed < reader.record_count() &&
         interp.step()) {
  }
  if (!diverged && result.replayed != reader.record_count()) {
    why << "trace has " << reader.record_count()
        << " records but live run retired only " << result.replayed << "; ";
  }

  result.final_state.executed = interp.executed();
  result.final_state.halted = interp.halted();
  result.final_state.regs = interp.regs();
  result.final_state.mem_digest = memory.digest();

  if (result.final_state.mem_digest != reader.final_digest()) {
    why << "final memory digest differs; ";
  }
  for (int i = 0; i < isa::kNumLogicalRegs; ++i) {
    if (result.final_state.regs[static_cast<size_t>(i)] !=
        reader.final_regs()[static_cast<size_t>(i)]) {
      why << "final r" << i << " differs; ";
      break;
    }
  }
  result.mismatch = why.str();
  result.match = result.mismatch.empty();
  return result;
}

}  // namespace cfir::trace
