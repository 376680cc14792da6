#include "trace/bbv.hpp"

#include <algorithm>
#include <stdexcept>

#include "isa/engine.hpp"
#include "isa/isa.hpp"
#include "sim/sweep.hpp"
#include "trace/checkpoint.hpp"
#include "trace/trace.hpp"

namespace cfir::trace {

uint64_t window_len(uint64_t total, uint64_t n_windows) {
  if (n_windows == 0) n_windows = 1;
  return std::max<uint64_t>(
      1, total / n_windows + (total % n_windows != 0 ? 1 : 0));
}

void BbvBuilder::add(uint64_t pc, uint64_t n, bool ends_in_cond_branch) {
  if (n == 0) return;
  // Block boundary at the slice's first instruction: stream start, the
  // instruction after a conditional branch (both arms), or any PC
  // discontinuity (call/ret/taken branch target, a jump anywhere but the
  // next slot). The rest of the slice continues that block: each PC
  // follows its predecessor's and only the last may be a branch.
  uint32_t dim;
  if (total_ == 0 || last_was_branch_ || pc != last_pc_ + isa::kInstBytes) {
    Hint& hint = hints_[(pc / isa::kInstBytes) & (kHints - 1)];
    if (hint.pc != pc) {
      const auto [it, inserted] =
          dim_of_.try_emplace(pc, static_cast<uint32_t>(leaders_.size()));
      if (inserted) leaders_.push_back(pc);
      hint = {pc, it->second};
    }
    dim = hint.dim;
  } else {
    dim = runs_.back().dim;
  }
  uint64_t left = n;
  if (!runs_.empty() && runs_.back().dim == dim) {
    Run& run = runs_.back();
    const uint64_t take = std::min<uint64_t>(left, UINT32_MAX - run.insts);
    run.insts += static_cast<uint32_t>(take);
    left -= take;
  }
  while (left > 0) {
    const uint64_t take = std::min<uint64_t>(left, UINT32_MAX);
    runs_.push_back({dim, static_cast<uint32_t>(take)});
    left -= take;
  }
  total_ += n;
  last_pc_ = pc + (n - 1) * isa::kInstBytes;
  last_was_branch_ = ends_in_cond_branch;
}

BbvSet BbvBuilder::finish(uint64_t interval_len) {
  if (interval_len == 0) {
    throw std::runtime_error("BbvBuilder: interval_len must be > 0");
  }
  BbvSet set;
  set.interval_len = interval_len;
  set.total_insts = total_;
  const uint64_t windows =
      total_ / interval_len + (total_ % interval_len != 0 ? 1 : 0);
  set.vectors.assign(windows, std::vector<uint32_t>(leaders_.size(), 0));
  // A run crossing a window boundary splits there; the remainder stays in
  // the same dimension of the next window.
  size_t w = 0;
  uint64_t room = interval_len;
  for (const Run& run : runs_) {
    uint64_t left = run.insts;
    while (left > 0) {
      const uint64_t take = std::min(left, room);
      set.vectors[w][run.dim] += static_cast<uint32_t>(take);
      left -= take;
      room -= take;
      if (room == 0) {
        ++w;
        room = interval_len;
      }
    }
  }
  set.leaders = std::move(leaders_);
  return set;
}

BbvSet bbv_from_trace(TraceReader& reader, uint64_t interval_len) {
  BbvBuilder builder;
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
  std::vector<std::vector<isa::StepEvent>> decoded(
      std::min(kWave, n_blocks));
  for (size_t start = 0; start < n_blocks; start += kWave) {
    const size_t n = std::min(kWave, n_blocks - start);
    sim::parallel_for(
        n, [&](size_t i) { decoded[i] = reader.decode_block(start + i); });
    for (size_t i = 0; i < n; ++i) {
      for (const isa::StepEvent& ev : decoded[i]) {
        builder.add(ev.pc, 1, ev.kind == isa::EventKind::kBranch);
      }
    }
  }
  return builder.finish(interval_len);
}

BbvBuilder bbv_runs_from_program(const isa::Program& program,
                                 uint64_t max_insts, SnapshotLadder* ladder) {
  BbvBuilder builder;
  mem::MainMemory memory;
  isa::load_data_image(program, memory);
  // Each slice is one executed block slice: consecutive PCs, of which
  // only the last can be a conditional branch — exactly what add() takes.
  isa::FunctionalEngine engine(program, memory);
  engine.on_slice = [&](uint64_t entry_pc, uint32_t n, bool branch) {
    builder.add(entry_pc, n, branch);
  };
  const uint64_t cap = max_insts == 0 ? UINT64_MAX : max_insts;
  if (ladder != nullptr) {
    ladder->run(engine, memory, cap);
  } else {
    engine.run(cap);
  }
  return builder;
}

BbvSet bbv_from_program(const isa::Program& program, uint64_t interval_len,
                        uint64_t max_insts) {
  return bbv_runs_from_program(program, max_insts).finish(interval_len);
}

}  // namespace cfir::trace
