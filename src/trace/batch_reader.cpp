#include "trace/batch_reader.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "sim/pool.hpp"

namespace cfir::trace {

namespace {
/// Blocks per wave. Matches the scale of bbv_from_trace's decode waves:
/// large enough to keep every decode lane busy, small enough that two
/// buffered waves stay at a few dozen MB even at the default 64Ki-record
/// block capacity.
constexpr size_t kWaveBlocks = 16;
}  // namespace

BlockBatchReader::BlockBatchReader(TraceReader& reader, uint64_t limit)
    : reader_(reader),
      limit_(std::min(limit, reader.record_count())),
      threads_(sim::ThreadPool::shared().size()),
      // A 1-worker pool has no lane to decode ahead on, so each batch is
      // one block, trained on while it is still in cache.
      wave_blocks_(threads_ > 1
                       ? std::max(kWaveBlocks, static_cast<size_t>(threads_))
                       : 1) {
  if (threads_ > 1 && limit_ > 0) {
    prefetching_ = true;
    prefetcher_ = std::thread([this] { produce(); });
  }
}

BlockBatchReader::~BlockBatchReader() {
  if (prefetching_) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    prefetcher_.join();
  }
}

BlockBatchReader::Batch BlockBatchReader::decode_wave() {
  Batch out;
  out.first_record = next_record_;
  const size_t n_blocks = reader_.block_count();
  size_t count = 0;
  while (next_block_ + count < n_blocks && count < wave_blocks_ &&
         reader_.block_first_record(next_block_ + count) < limit_) {
    ++count;
  }
  if (count == 0) return out;
  out.blocks.resize(count);
  const size_t first = next_block_;
  // Wave decode on the shared pool: `threads_ - 1` helpers plus this thread,
  // so each stage of the pipeline runs on at most the pool's size.
  sim::ThreadPool::shared().run(
      count, [&](size_t i) { out.blocks[i] = reader_.decode_block(first + i); },
      threads_ - 1);
  next_block_ += count;
  // Trim the final block to the record limit (the wave never includes a
  // block whose first record is past it).
  uint64_t pos = out.first_record;
  for (auto& blk : out.blocks) {
    if (pos + blk.size() > limit_) {
      blk.resize(static_cast<size_t>(limit_ - pos));
    }
    pos += blk.size();
  }
  next_record_ = pos;
  return out;
}

void BlockBatchReader::produce() {
  for (;;) {
    Batch wave;
    std::exception_ptr err;
    try {
      wave = decode_wave();
    } catch (...) {
      err = std::current_exception();
    }
    const bool last = err != nullptr || wave.blocks.empty();
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return stop_ || !slot_full_; });
    if (stop_) return;
    slot_ = std::move(wave);
    slot_error_ = err;
    slot_full_ = true;
    cv_.notify_all();
    if (last) return;  // end-of-stream (empty) or error batch published
  }
}

bool BlockBatchReader::next_batch(Batch& out) {
  if (done_) return false;
  obs::Registry& reg = obs::Registry::instance();
  if (!prefetching_) {
    // No prefetch thread (1-worker pool, or empty limit): the whole decode
    // is consumer stall, so it all lands in the counter.
    const obs::Stopwatch wait;
    out = decode_wave();
    reg.counter("warming.decode_wait_us").add(wait.elapsed_us());
    done_ = out.blocks.empty();
    return !done_;
  }
  const obs::Stopwatch wait;
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [&] { return slot_full_; });
  reg.counter("warming.decode_wait_us").add(wait.elapsed_us());
  if (slot_error_) {
    const std::exception_ptr err = slot_error_;
    done_ = true;
    std::rethrow_exception(err);
  }
  out = std::move(slot_);
  slot_full_ = false;
  cv_.notify_all();
  done_ = out.blocks.empty();
  return !done_;
}

}  // namespace cfir::trace
