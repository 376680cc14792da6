#include "sim/options.hpp"

#include <unistd.h>

#include <concepts>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "util/parse.hpp"

namespace cfir::sim {

namespace {

using Text = std::string_view;

// One rule per field type. Each leaves the field alone for an empty value
// and throws util::UsageError naming the knob for a malformed one.

template <std::integral T>
void read(T& field, Text name, Text text, uint64_t min = 0) {
  if (text.empty()) return;
  const uint64_t value =
      util::parse_decimal(name, text, std::numeric_limits<T>::max());
  if (value < min) {
    throw util::UsageError(std::string(name) + " must be at least " +
                           std::to_string(min) + ", got '" +
                           std::string(text) + "'");
  }
  field = static_cast<T>(value);
}

void read(std::optional<uint64_t>& field, Text name, Text text) {
  if (!text.empty()) field = util::parse_decimal(name, text);
}

void read(trace::SampleMode& field, Text name, Text text) {
  if (!text.empty()) field = trace::parse_sample_mode(name, text);
}

void read(trace::WarmMode& field, Text name, Text text) {
  if (!text.empty()) field = trace::parse_warm_mode(name, text);
}

void read(bool& field, Text name, Text text) {
  if (text.empty()) return;
  if (text != "0" && text != "1") {
    throw util::UsageError(std::string(name) + " must be 0 or 1, got '" +
                           std::string(text) + "'");
  }
  field = text == "1";
}

void read(std::string& field, Text, Text text) {
  if (!text.empty()) field = text;
}

}  // namespace

Options Options::from_env() {
  Options o;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const Text var = *entry;
    if (!var.starts_with("CFIR_")) continue;
    const size_t eq = var.find('=');
    const Text n = var.substr(0, eq);
    const Text t = eq == Text::npos ? Text() : var.substr(eq + 1);
    // The declarations: one line per knob; the field's type picks the rule.
    if (n == "CFIR_SCALE") read(o.scale, n, t, /*min=*/1);
    else if (n == "CFIR_THREADS") read(o.threads, n, t);
    else if (n == "CFIR_MAX_INSTS") read(o.max_insts, n, t);
    else if (n == "CFIR_INTERVALS") read(o.intervals, n, t);
    else if (n == "CFIR_SAMPLE_MODE") read(o.sample_mode, n, t);
    else if (n == "CFIR_WARMUP") read(o.warmup, n, t);
    else if (n == "CFIR_WARM_MODE") read(o.warm_mode, n, t);
    else if (n == "CFIR_DETAIL_LEN") read(o.detail_len, n, t);
    else if (n == "CFIR_JSON") read(o.json, n, t);
    else if (n == "CFIR_TRACE") read(o.trace, n, t == "0" ? Text() : t);
    else if (n == "CFIR_TRACE_DIR") read(o.trace_dir, n, t);
    else throw util::UsageError(std::string(n) + " is not a knob (README "
                                "\"Environment knobs\" lists them)");
  }
  return o;
}

int Options::threads_from_env() {
  const char* text = std::getenv("CFIR_THREADS");
  int threads = 0;
  read(threads, "CFIR_THREADS", text == nullptr ? "" : text);
  return threads;
}

}  // namespace cfir::sim
