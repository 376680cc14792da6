// Cycle-bucketed calendar queue of timed events, shared by the core's
// completion events and the replica engine's replica completions
// (docs/architecture.md "Detailed core scheduler").
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cfir::core {

/// Events of type T, each carrying its due cycle in `when`. Bucket
/// (when & (kBuckets - 1)) holds the events due at `when`; an event due
/// beyond the ring horizon parks in an overflow list and moves into its
/// bucket once its due cycle enters the horizon.
///
/// A bucket only ever holds events due at its own cycle: push() files an
/// event into a bucket only when it is due less than kBuckets cycles from
/// now, and drain() empties every bucket up to now before it moves
/// overflow events in, so two due cycles that share a bucket are never
/// pending at once. Within a bucket, events keep push order: an overflow
/// event moves in before anything can be pushed straight into its bucket.
template <typename T>
class Calendar {
 public:
  static constexpr uint32_t kBuckets = 256;  // power of two

  Calendar() : buckets_(kBuckets) {}

  /// Schedules `ev` at cycle `now`; it must not be due before `now`.
  void push(const T& ev, uint64_t now) {
    assert(ev.when >= now && "event due in the past");
    ++pending_;
    if (ev.when - now < kBuckets) {
      buckets_[ev.when & (kBuckets - 1)].push_back(ev);
      // An event due at a cycle whose drain already ran (a zero-latency
      // event pushed after this cycle's drain) reopens that cycle.
      if (ev.when < next_drain_) next_drain_ = ev.when;
    } else {
      overflow_.push_back(ev);
    }
  }

  /// Calls visit(events) with the events due at each not yet drained
  /// cycle up to `now`, in cycle order and push order, then moves the
  /// overflow events that entered the horizon into their buckets. visit
  /// may push events due after `now`, and may reorder its vector.
  template <typename Fn>
  void drain(uint64_t now, Fn&& visit) {
    if (pending_ == 0) {
      next_drain_ = now + 1;
      return;
    }
    for (uint64_t t = next_drain_; t <= now; ++t) {
      std::vector<T>& bucket = buckets_[t & (kBuckets - 1)];
      if (bucket.empty()) continue;
      // Take the events out by swapping buffers, so visit's pushes never
      // touch the vector it walks.
      due_.swap(bucket);
      pending_ -= due_.size();
      visit(due_);
      due_.clear();
    }
    next_drain_ = now + 1;
    if (overflow_.empty()) return;
    size_t keep = 0;
    for (const T& ev : overflow_) {
      if (ev.when - now < kBuckets) {
        buckets_[ev.when & (kBuckets - 1)].push_back(ev);
      } else {
        overflow_[keep++] = ev;
      }
    }
    overflow_.resize(keep);
  }

 private:
  std::vector<std::vector<T>> buckets_;
  std::vector<T> overflow_;
  std::vector<T> due_;
  uint64_t next_drain_ = 0;
  size_t pending_ = 0;  ///< events in the buckets and the overflow list
};

}  // namespace cfir::core
