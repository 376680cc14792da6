#include "util/parse.hpp"

#include <charconv>
#include <string>

namespace cfir::util {

uint64_t parse_decimal(std::string_view what, std::string_view text,
                       uint64_t max) {
  const char* end = text.data() + text.size();
  uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value > max) {
    throw UsageError(std::string(what) +
                     " must be a whole decimal number no larger than " +
                     std::to_string(max) + ", got '" + std::string(text) +
                     "'");
  }
  return value;
}

}  // namespace cfir::util
