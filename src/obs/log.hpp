// Rate-limited diagnostic logging for the library. All human-facing
// chatter goes to stderr through here — never stdout, which belongs to
// machine output (bench CFIR_JSON, trace_tool print_run) and is
// byte-diffed by CI.
//
// Every message has a `key`; each key prints at most `limit` times per
// process (default 1 — "warn once" semantics). The first call past the
// limit prints a one-line "further '<key>' messages suppressed" notice so
// readers know the stream is incomplete; later calls are counted but
// silent. Counts are queryable for tests (`log_emitted`, `log_seen`).
#pragma once

#include <cstdint>
#include <string>

namespace cfir::obs {

enum class LogLevel { kInfo, kWarn, kError };

/// Prints "cfir: <level>: <message>" to stderr unless `key` already hit
/// its per-process limit. Thread-safe. Returns whether the line printed.
bool log(LogLevel level, const std::string& key, const std::string& message,
         uint64_t limit = 1);

/// Times `key` actually printed so far (suppression notice not counted).
[[nodiscard]] uint64_t log_emitted(const std::string& key);

/// Times `key` was logged, printed or suppressed.
[[nodiscard]] uint64_t log_seen(const std::string& key);

/// Forgets all per-key counts — test isolation only.
void log_reset_for_tests();

}  // namespace cfir::obs
