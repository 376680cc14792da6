// Flight-recorder tracing: RAII scoped spans and counter events recorded
// into per-thread ring buffers and exported as Chrome trace-event JSON
// (load the file in chrome://tracing or https://ui.perfetto.dev).
//
// Design constraints (docs/observability.md):
//  - Near-zero cost when disabled: every record call starts with one
//    relaxed atomic load and returns immediately while no trace is active.
//    Instrumentation therefore stays compiled in everywhere, including the
//    warming and simulation hot paths.
//  - Lock-free append when enabled: each thread appends to its own ring
//    buffer (registered once per thread under a mutex, then never shared
//    for writing), so worker threads on the sim::parallel_for pool never
//    contend. The rings are fixed size and wrap — a flight recorder keeps
//    the most recent window, it never blocks or grows.
//  - No behavioural coupling: the tracer only reads clocks and copies
//    pointers to string literals. Simulated results are bit-identical with
//    tracing on and off (locked by tests/test_obs.cpp).
//
// Span/counter names MUST be string literals (or otherwise outlive the
// tracer): the append path stores the pointer, never the bytes.
//
// Lifecycle: start(path) enables recording; stop() disables it, drains
// every thread's ring and writes the JSON file. stop() must not race with
// instrumented work — call it after worker pools have joined (trace_tool
// and the bench harness stop at process exit, after run_all returned).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace cfir::obs {

class Tracer {
 public:
  /// The process-wide tracer every instrumentation site records into.
  static Tracer& instance();

  /// Enables recording; the Chrome trace JSON is written to `path` by
  /// stop(). Restarting an already started tracer rebinds the output path
  /// and clears previously recorded events.
  void start(const std::string& path);

  /// Disables recording, drains every thread ring (chronological per
  /// thread, unbalanced end-events from ring wrap dropped, still-open
  /// spans closed at export time) and writes the trace file. No-op when
  /// never started; safe to call twice.
  void stop();

  /// One relaxed load — the only cost instrumentation pays when disabled.
  [[nodiscard]] static bool enabled() {
    return instance().enabled_.load(std::memory_order_relaxed);
  }

  // Record calls. All are no-ops while disabled; `name` must be a string
  // literal. `arg` surfaces in the event's "args":{"v":N}.
  static void begin(const char* name, uint64_t arg = 0, bool has_arg = false);
  static void end(const char* name);
  static void counter(const char* name, uint64_t value);
  static void instant(const char* name, uint64_t arg = 0,
                      bool has_arg = false);

  /// Labels the calling thread's lane in the trace viewer (emitted as a
  /// thread_name metadata event). sim::parallel_for names its workers.
  static void set_thread_name(const std::string& name);

  /// Events recorded since start() across all threads (ring-capped per
  /// thread) — introspection for tests.
  [[nodiscard]] uint64_t recorded_events() const;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

 private:
  Tracer() = default;

  std::atomic<bool> enabled_{false};
};

/// RAII span: begin event on construction (when tracing), matching end
/// event on destruction. The constructor-time enabled() check is latched,
/// so a span opened while tracing always closes even if tracing stops
/// mid-scope (the exporter drops ends without begins, so the pair stays
/// balanced either way).
class Span {
 public:
  explicit Span(const char* name) {
    if (Tracer::enabled()) {
      name_ = name;
      Tracer::begin(name);
    }
  }
  Span(const char* name, uint64_t arg) {
    if (Tracer::enabled()) {
      name_ = name;
      Tracer::begin(name, arg, /*has_arg=*/true);
    }
  }
  ~Span() {
    if (name_ != nullptr) Tracer::end(name_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;
};

/// Starts the process tracer and registers an atexit hook that exports the
/// file when the process ends — the one-call setup for CLI entry points.
void trace_start(const std::string& path);

}  // namespace cfir::obs
