#include "obs/progress.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string_view>

#include "util/parse.hpp"

namespace cfir::obs {

namespace {

int64_t now_ms() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

/// Minimum ms between non-forced heartbeats.
constexpr int64_t kMinIntervalMs = 100;

struct ProgressState {
  std::mutex mu;
  std::string sidecar_path;
  bool mirror_stderr = false;
  int64_t last_emit_ms = -1;

  static ProgressState& get() {
    static ProgressState state;
    return state;
  }
};

/// Extracts `"key":<unsigned integer>` from a flat JSON line. Returns
/// false when the key is absent or not a number.
bool find_u64(const std::string& line, const char* key, uint64_t* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  size_t p = at + needle.size();
  bool neg = false;
  if (p < line.size() && line[p] == '-') {
    neg = true;
    ++p;
  }
  if (p >= line.size() || line[p] < '0' || line[p] > '9') return false;
  uint64_t v = 0;
  while (p < line.size() && line[p] >= '0' && line[p] <= '9') {
    v = v * 10 + static_cast<uint64_t>(line[p] - '0');
    ++p;
  }
  *out = neg ? static_cast<uint64_t>(-static_cast<int64_t>(v)) : v;
  return true;
}

bool find_i64(const std::string& line, const char* key, int64_t* out) {
  uint64_t raw = 0;
  if (!find_u64(line, key, &raw)) return false;
  *out = static_cast<int64_t>(raw);
  return true;
}

bool find_string(const std::string& line, const char* key,
                 std::string* out) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  const size_t start = at + needle.size();
  const size_t end = line.find('"', start);
  if (end == std::string::npos) return false;
  *out = line.substr(start, end - start);
  return true;
}

}  // namespace

std::string Heartbeat::to_json() const {
  std::string out = "{\"cfirprog\":1";
  out += ",\"t_ms\":" + std::to_string(t_ms);
  out += ",\"phase\":\"" + phase + "\"";
  out += ",\"shard\":\"" + std::to_string(shard_index) + "/" +
         std::to_string(shard_count) + "\"";
  out += ",\"done\":" + std::to_string(done);
  out += ",\"total\":" + std::to_string(total);
  out += ",\"intervals_done\":" + std::to_string(intervals_done);
  out += ",\"plan_intervals\":" + std::to_string(plan_intervals);
  out += ",\"configs\":" + std::to_string(configs);
  out += ",\"warmed_insts\":" + std::to_string(warmed_insts);
  out += ",\"detailed_insts\":" + std::to_string(detailed_insts);
  out += ",\"eta_ms\":" + std::to_string(eta_ms);
  out += "}";
  return out;
}

bool Heartbeat::parse(const std::string& line, Heartbeat* out) {
  uint64_t tag = 0;
  if (!find_u64(line, "cfirprog", &tag) || tag != 1) return false;
  Heartbeat hb;
  if (!find_string(line, "phase", &hb.phase)) return false;
  std::string shard;
  if (find_string(line, "shard", &shard)) {
    const std::string_view text(shard);
    const size_t slash = text.find('/');
    if (slash == std::string_view::npos) return false;
    try {
      hb.shard_index = static_cast<uint32_t>(util::parse_decimal(
          "shard index", text.substr(0, slash), UINT32_MAX));
      hb.shard_count = static_cast<uint32_t>(util::parse_decimal(
          "shard count", text.substr(slash + 1), UINT32_MAX));
    } catch (const std::runtime_error&) {
      return false;
    }
    if (hb.shard_count == 0) return false;
  }
  (void)find_i64(line, "t_ms", &hb.t_ms);
  (void)find_u64(line, "done", &hb.done);
  (void)find_u64(line, "total", &hb.total);
  (void)find_u64(line, "intervals_done", &hb.intervals_done);
  (void)find_u64(line, "plan_intervals", &hb.plan_intervals);
  uint64_t configs = 0;
  if (find_u64(line, "configs", &configs)) {
    hb.configs = static_cast<uint32_t>(configs);
  }
  (void)find_u64(line, "warmed_insts", &hb.warmed_insts);
  (void)find_u64(line, "detailed_insts", &hb.detailed_insts);
  (void)find_i64(line, "eta_ms", &hb.eta_ms);
  *out = std::move(hb);
  return true;
}

Progress& Progress::global() {
  static Progress* progress = new Progress();  // leaked: outlive atexit
  return *progress;
}

void Progress::configure(const std::string& sidecar_path,
                         bool mirror_stderr) {
  ProgressState& state = ProgressState::get();
  std::lock_guard<std::mutex> lk(state.mu);
  state.sidecar_path = sidecar_path;
  state.mirror_stderr = mirror_stderr;
  state.last_emit_ms = -1;
  if (!sidecar_path.empty()) {
    std::ofstream truncate(sidecar_path, std::ios::trunc);
  }
  (void)now_ms();  // pin the epoch
  enabled_.store(!sidecar_path.empty() || mirror_stderr,
                 std::memory_order_release);
}

void Progress::disable() {
  enabled_.store(false, std::memory_order_release);
}

void Progress::emit(Heartbeat hb, bool force) {
  if (!enabled()) return;
  ProgressState& state = ProgressState::get();
  std::lock_guard<std::mutex> lk(state.mu);
  const int64_t now = now_ms();
  if (!force && state.last_emit_ms >= 0 &&
      now - state.last_emit_ms < kMinIntervalMs) {
    return;
  }
  state.last_emit_ms = now;
  hb.t_ms = now;
  const std::string line = hb.to_json();
  if (!state.sidecar_path.empty()) {
    std::ofstream out(state.sidecar_path, std::ios::app);
    if (out) out << line << "\n";
  }
  if (state.mirror_stderr) {
    std::fprintf(stderr, "%s\n", line.c_str());
    std::fflush(stderr);
  }
}

bool progress_requested() {
  const char* v = std::getenv("CFIR_PROGRESS");
  return v != nullptr && *v != '\0' && !(v[0] == '0' && v[1] == '\0');
}

bool progress_stderr_requested() {
  const char* v = std::getenv("CFIR_PROGRESS");
  return v != nullptr && std::string(v) == "stderr";
}

}  // namespace cfir::obs
