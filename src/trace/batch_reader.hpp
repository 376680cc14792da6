// Decode-prefetching batch view of a recorded trace — the first stage of
// the pipelined functional-warming path (docs/sampling.md "Pipelined
// warming"). A CFIRTRC2 block decode (CRC check + column expansion + LZ)
// is pure and thread-safe (TraceReader::decode_block), so upcoming
// blocks can be decoded while the consumer is still training warmers on
// the previous ones: a dedicated prefetch thread wave-decodes the next
// run of blocks on the shared sim::ThreadPool and parks the finished
// wave in a depth-1 slot (double buffering — one wave being consumed,
// one being produced). The consumer's only exposure to decode cost is
// the time it actually blocks in next_batch(), surfaced as the
// `warming.decode_wait_us` counter; 0 means decode never sat on the
// warming critical path.
//
// The pipeline's parallelism is the shared pool's size: each wave decodes
// on the pool's workers plus the calling thread, and a 1-worker pool runs
// every decode synchronously inside next_batch with no prefetch thread.
// Record order is the stream order either way, and the set of blocks
// decoded for a record limit L is exactly the set a sequential read of
// [0, L) touches, so `trace.blocks_read` accounting is unchanged.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "trace/trace.hpp"

namespace cfir::trace {

/// Streams the records [0, limit) of `reader` as decoded batches. While
/// a BlockBatchReader is live it owns the reader: no other next()/seek
/// calls may touch it (wave decodes run concurrently on pool threads).
class BlockBatchReader {
 public:
  /// One delivered wave: `blocks` hold the records, in stream order,
  /// starting at record index `first_record`.
  struct Batch {
    uint64_t first_record = 0;
    std::vector<std::vector<TraceRecord>> blocks;

    [[nodiscard]] size_t records() const {
      size_t n = 0;
      for (const auto& b : blocks) n += b.size();
      return n;
    }
  };

  /// `limit` caps the delivered records (clamped to the trace length —
  /// a shortfall surfaces as early end-of-stream, which the warming
  /// layer turns into its truncated-trace error).
  BlockBatchReader(TraceReader& reader, uint64_t limit);
  ~BlockBatchReader();
  BlockBatchReader(const BlockBatchReader&) = delete;
  BlockBatchReader& operator=(const BlockBatchReader&) = delete;

  /// Fetches the next wave into `out`; false at end of stream. Rethrows
  /// (once) any exception the prefetch decode hit. Time spent blocked
  /// here accumulates into the `warming.decode_wait_us` counter.
  bool next_batch(Batch& out);

 private:
  [[nodiscard]] Batch decode_wave();  ///< cursor-advancing wave decode
  void produce();                     ///< prefetch-thread main

  TraceReader& reader_;
  uint64_t limit_;
  int threads_;  ///< threads per wave decode: the shared pool's size
  size_t wave_blocks_;
  bool done_ = false;  ///< consumer saw end-of-stream (or the error)

  // Decode cursor. Owned by the prefetch thread when prefetching, by
  // next_batch otherwise — never shared.
  uint64_t next_record_ = 0;
  size_t next_block_ = 0;

  // Depth-1 producer/consumer slot (prefetch mode only).
  bool prefetching_ = false;
  std::thread prefetcher_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool slot_full_ = false;
  Batch slot_;
  std::exception_ptr slot_error_;
};

}  // namespace cfir::trace
