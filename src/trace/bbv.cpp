#include "trace/bbv.hpp"

#include <algorithm>
#include <stdexcept>

#include "isa/engine.hpp"
#include "isa/isa.hpp"
#include "sim/sweep.hpp"
#include "trace/trace.hpp"

namespace cfir::trace {

BbvBuilder::BbvBuilder(uint64_t interval_len) {
  if (interval_len == 0) {
    throw std::runtime_error("BbvBuilder: interval_len must be > 0");
  }
  set_.interval_len = interval_len;
}

void BbvBuilder::step(uint64_t pc, bool is_cond_branch) {
  if (in_interval_ == set_.interval_len) flush_interval();

  // Block boundary: stream start, the instruction after a conditional
  // branch (both arms), or any PC discontinuity (jump/call/ret/taken
  // branch target).
  const bool new_block =
      !have_prev_ || prev_was_branch_ || pc != prev_pc_ + isa::kInstBytes;
  if (new_block) {
    const auto [it, inserted] =
        dim_of_.try_emplace(pc, static_cast<uint32_t>(set_.leaders.size()));
    if (inserted) set_.leaders.push_back(pc);
    cur_dim_ = it->second;
  }
  if (cur_dim_ >= current_.size()) current_.resize(cur_dim_ + 1, 0);
  ++current_[cur_dim_];
  ++in_interval_;
  ++set_.total_insts;

  prev_pc_ = pc;
  prev_was_branch_ = is_cond_branch;
  have_prev_ = true;
}

void BbvBuilder::flush_interval() {
  set_.vectors.push_back(std::move(current_));
  current_.clear();
  in_interval_ = 0;
}

BbvSet BbvBuilder::finish() {
  if (in_interval_ > 0) flush_interval();
  // Early intervals stopped growing before later blocks were discovered;
  // pad every vector to the final dimensionality.
  for (auto& v : set_.vectors) v.resize(set_.leaders.size(), 0);
  return std::move(set_);
}

BbvSet bbv_from_trace(TraceReader& reader, uint64_t interval_len) {
  BbvBuilder builder(interval_len);
  // Fan the block decodes (CRC + column expansion — the expensive part)
  // out on the memoized sim::ThreadPool behind parallel_for, in bounded
  // waves so memory stays at a few blocks per worker — the pool persists
  // across waves, so a 1000-block trace pays zero thread spawns here
  // instead of one set per 32-block wave. The records are then fed to the
  // builder strictly in stream order: leader discovery order defines the
  // BBV dimension numbering, so the vectors stay bit-identical to a
  // sequential read.
  constexpr size_t kWave = 32;
  const size_t n_blocks = reader.block_count();
  std::vector<std::vector<TraceRecord>> decoded(std::min(kWave, n_blocks));
  for (size_t start = 0; start < n_blocks; start += kWave) {
    const size_t n = std::min(kWave, n_blocks - start);
    sim::parallel_for(
        n, [&](size_t i) { decoded[i] = reader.decode_block(start + i); });
    for (size_t i = 0; i < n; ++i) {
      for (const TraceRecord& rec : decoded[i]) {
        builder.step(rec.pc, rec.kind == RecordKind::kBranch);
      }
    }
  }
  return builder.finish();
}

BbvSet bbv_from_program(const isa::Program& program, uint64_t interval_len,
                        uint64_t max_insts) {
  BbvBuilder builder(interval_len);
  mem::MainMemory memory;
  isa::load_data_image(program, memory);
  // kBranch events are exactly the conditional branches, so the engine's
  // event stream carries the is_cond_branch flag without a program lookup.
  isa::FunctionalEngine engine(program, memory);
  engine.set_sink([&](uint64_t, const isa::StepEvent* ev, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      builder.step(ev[i].pc, ev[i].kind == isa::EventKind::kBranch);
    }
  });
  engine.run(max_insts == 0 ? UINT64_MAX : max_insts);
  return builder.finish();
}

}  // namespace cfir::trace
