// The one parser for numbers typed by a user: the numeric CFIR_* knobs
// (sim/options.cpp) and the command-line tools' numeric arguments. C's
// strtoul family parses a prefix, so "1e3" read as 1 and "4x" as 4; this
// accepts a whole decimal string or nothing.
#pragma once

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string_view>

namespace cfir::util {

/// A malformed value typed by a user — a command-line argument or a
/// CFIR_* knob — with a message naming it. Entry points report it as a
/// usage error (exit 2).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// `text` as a number no larger than `max`. Only decimal digits are
/// accepted: no sign, space, exponent or suffix, and not the empty string.
/// Anything else throws UsageError naming `what` and `text`.
[[nodiscard]] uint64_t parse_decimal(
    std::string_view what, std::string_view text,
    uint64_t max = std::numeric_limits<uint64_t>::max());

}  // namespace cfir::util
