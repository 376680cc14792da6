// The one parser for numbers typed by a user: the numeric CFIR_* knobs
// (sim/sweep.cpp) and the command-line tools' numeric arguments. C's
// strtoul family parses a prefix, so "1e3" read as 1 and "4x" as 4; this
// accepts a whole decimal string or nothing.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

namespace cfir::util {

/// `text` as a number no larger than `max`. Only decimal digits are
/// accepted: no sign, space, exponent or suffix, and not the empty string.
/// Anything else throws std::runtime_error naming `what` and `text`.
[[nodiscard]] uint64_t parse_decimal(
    std::string_view what, std::string_view text,
    uint64_t max = std::numeric_limits<uint64_t>::max());

}  // namespace cfir::util
