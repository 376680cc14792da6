#include "obs/tracer.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <vector>

namespace cfir::obs {

namespace {

enum class Phase : uint8_t { kBegin, kEnd, kCounter, kInstant };

struct Event {
  int64_t ts_us = 0;
  const char* name = nullptr;  ///< string literal, stored by pointer
  uint64_t arg = 0;
  Phase phase = Phase::kInstant;
  bool has_arg = false;
};

/// Events each thread's flight-recorder ring can hold before wrapping.
constexpr size_t kRingCapacity = 1u << 16;

struct ThreadRing {
  uint32_t tid = 0;
  std::string thread_name;
  std::vector<Event> ring;
  size_t head = 0;         ///< next write slot
  uint64_t appended = 0;   ///< total appends (detects wrap)

  void append(const Event& e) {
    if (ring.empty()) ring.resize(kRingCapacity);
    ring[head] = e;
    head = (head + 1) % kRingCapacity;
    ++appended;
  }
};

int64_t now_us() {
  // One steady epoch per process so timestamps from every thread share a
  // timeline; established on first use, before any worker thread exists.
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void json_escape_into(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out.append(buf);
    } else {
      out.push_back(c);
    }
  }
}

/// Process-wide tracer state, separate from the Tracer facade so the
/// append path's thread-local registration can reach it directly.
struct TracerState {
  std::mutex mu;  ///< guards registry + start/stop; never the append path
  std::vector<std::shared_ptr<ThreadRing>> rings;
  std::string out_path;
  uint32_t next_tid = 1;
  uint64_t epoch_generation = 0;  ///< bumped by start(); stale TLS re-registers

  static TracerState& get() {
    static TracerState state;
    return state;
  }
};

// Thread-local ring registration. The generation check makes a restarted
// tracer hand out fresh rings instead of replaying a dead session's buffer.
thread_local std::shared_ptr<ThreadRing> tls_ring;
thread_local uint64_t tls_generation = 0;

ThreadRing* local_ring() {
  TracerState& impl = TracerState::get();
  if (tls_ring == nullptr || tls_generation != impl.epoch_generation) {
    auto ring = std::make_shared<ThreadRing>();
    {
      std::lock_guard<std::mutex> lk(impl.mu);
      ring->tid = impl.next_tid++;
      impl.rings.push_back(ring);
      tls_generation = impl.epoch_generation;
    }
    tls_ring = std::move(ring);
  }
  return tls_ring.get();
}

void record(Phase phase, const char* name, uint64_t arg, bool has_arg) {
  Event e;
  e.ts_us = now_us();
  e.name = name;
  e.arg = arg;
  e.phase = phase;
  e.has_arg = has_arg;
  local_ring()->append(e);
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::start(const std::string& path) {
  TracerState& impl = TracerState::get();
  std::lock_guard<std::mutex> lk(impl.mu);
  impl.out_path = path;
  impl.rings.clear();
  impl.next_tid = 1;
  ++impl.epoch_generation;
  (void)now_us();  // pin the epoch before any worker records
  enabled_.store(true, std::memory_order_release);
}

void Tracer::stop() {
  TracerState& impl = TracerState::get();
  // Flip the gate first so no new appends start, then drain under the
  // registry lock. Callers must have joined instrumented workers already
  // (see header); the gate makes a stray late call drop its event rather
  // than corrupt anything, since it would write only its own ring.
  if (!enabled_.exchange(false)) return;

  std::lock_guard<std::mutex> lk(impl.mu);
  std::ofstream out(impl.out_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cfir: obs: cannot write trace file %s\n",
                 impl.out_path.c_str());
    return;
  }
  const int64_t drain_ts = now_us();

  // One event per line: the file is a single valid JSON document, and
  // line-oriented tools (and the ctest) can still scan it.
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  std::string line;
  bool first = true;
  auto emit = [&](const std::string& body) {
    if (!first) out << ",\n";
    first = false;
    out << body;
  };

  for (const auto& ring : impl.rings) {
    line.clear();
    line += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
    line += std::to_string(ring->tid);
    line += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    json_escape_into(line, ring->thread_name.empty()
                               ? "thread-" + std::to_string(ring->tid)
                               : ring->thread_name);
    line += "\"}}";
    emit(line);

    // Chronological order within the ring; when it wrapped, the oldest
    // surviving events start at `head`.
    const bool wrapped = ring->appended > ring->ring.size();
    const size_t n = wrapped ? ring->ring.size()
                             : static_cast<size_t>(ring->appended);
    const size_t begin = wrapped ? ring->head : 0;
    // A wrapped ring can hold end-events whose begin was overwritten; a
    // drain can see begin-events whose scope is still open. Track depth so
    // every emitted B has an emitted E and vice versa — the exporter keeps
    // the pairs balanced whatever the ring lost.
    int depth = 0;
    int64_t last_ts = 0;
    for (size_t k = 0; k < n; ++k) {
      const Event& e = ring->ring[(begin + k) % kRingCapacity];
      last_ts = e.ts_us;
      const char* ph = nullptr;
      switch (e.phase) {
        case Phase::kBegin:
          ph = "B";
          ++depth;
          break;
        case Phase::kEnd:
          if (depth == 0) continue;  // begin lost to ring wrap
          --depth;
          ph = "E";
          break;
        case Phase::kCounter: ph = "C"; break;
        case Phase::kInstant: ph = "i"; break;
      }
      line.clear();
      line += "{\"ph\":\"";
      line += ph;
      line += "\",\"pid\":1,\"tid\":";
      line += std::to_string(ring->tid);
      line += ",\"ts\":";
      line += std::to_string(e.ts_us);
      line += ",\"name\":\"";
      json_escape_into(line, e.name);
      line += "\"";
      if (e.phase == Phase::kCounter) {
        line += ",\"args\":{\"value\":";
        line += std::to_string(e.arg);
        line += "}";
      } else if (e.has_arg) {
        line += ",\"args\":{\"v\":";
        line += std::to_string(e.arg);
        line += "}";
      }
      if (e.phase == Phase::kInstant) line += ",\"s\":\"t\"";
      line += "}";
      emit(line);
    }
    // Close spans still open at drain time so the B/E pairing stays
    // balanced (e.g. a Span alive in the caller when stop() runs).
    for (; depth > 0; --depth) {
      line.clear();
      line += "{\"ph\":\"E\",\"pid\":1,\"tid\":";
      line += std::to_string(ring->tid);
      line += ",\"ts\":";
      line += std::to_string(std::max(last_ts, drain_ts));
      line += ",\"name\":\"<open-at-export>\"}";
      emit(line);
    }
  }
  out << "\n]}\n";
}

void Tracer::begin(const char* name, uint64_t arg, bool has_arg) {
  if (!enabled()) return;
  record(Phase::kBegin, name, arg, has_arg);
}

void Tracer::end(const char* name) {
  if (!enabled()) return;
  record(Phase::kEnd, name, 0, false);
}

void Tracer::counter(const char* name, uint64_t value) {
  if (!enabled()) return;
  record(Phase::kCounter, name, value, true);
}

void Tracer::instant(const char* name, uint64_t arg, bool has_arg) {
  if (!enabled()) return;
  record(Phase::kInstant, name, arg, has_arg);
}

void Tracer::set_thread_name(const std::string& name) {
  if (!enabled()) return;
  local_ring()->thread_name = name;
}

uint64_t Tracer::recorded_events() const {
  TracerState& impl = TracerState::get();
  std::lock_guard<std::mutex> lk(impl.mu);
  uint64_t total = 0;
  for (const auto& ring : impl.rings) {
    total += std::min<uint64_t>(ring->appended, kRingCapacity);
  }
  return total;
}

void trace_start(const std::string& path) {
  Tracer::instance().start(path);
  static bool atexit_registered = false;
  if (!atexit_registered) {
    atexit_registered = true;
    std::atexit([] { Tracer::instance().stop(); });
  }
}

}  // namespace cfir::obs
