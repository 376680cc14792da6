#include "sim/presets.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "util/parse.hpp"

namespace cfir::sim::presets {

std::vector<uint32_t> register_sweep() {
  return {128, 256, 512, 768, kInfRegs};
}

std::string reg_label(uint32_t regs) {
  return regs >= kInfRegs ? "inf" : std::to_string(regs);
}

core::CoreConfig table1() {
  core::CoreConfig cfg;  // struct defaults are Table 1
  return cfg;
}

namespace {
core::CoreConfig base(uint32_t ports, uint32_t regs) {
  core::CoreConfig cfg = table1();
  cfg.cache_ports = ports;
  cfg.num_phys_regs = regs;
  cfg.scale_window_to_regs();
  return cfg;
}
}  // namespace

core::CoreConfig scal(uint32_t ports, uint32_t regs) {
  core::CoreConfig cfg = base(ports, regs);
  cfg.policy = core::Policy::kNone;
  cfg.wide_bus = false;
  return cfg;
}

core::CoreConfig wb(uint32_t ports, uint32_t regs) {
  core::CoreConfig cfg = base(ports, regs);
  cfg.policy = core::Policy::kNone;
  cfg.wide_bus = true;
  return cfg;
}

core::CoreConfig ci(uint32_t ports, uint32_t regs, uint32_t replicas) {
  core::CoreConfig cfg = base(ports, regs);
  cfg.policy = core::Policy::kCi;
  cfg.wide_bus = true;
  cfg.replicas = replicas;
  return cfg;
}

core::CoreConfig ci_specmem(uint32_t ports, uint32_t regs, uint32_t slots,
                            uint32_t replicas) {
  core::CoreConfig cfg = ci(ports, regs, replicas);
  cfg.use_spec_memory = true;
  cfg.spec_memory_slots = slots;
  return cfg;
}

core::CoreConfig ci_window(uint32_t ports, uint32_t regs) {
  core::CoreConfig cfg = base(ports, regs);
  cfg.policy = core::Policy::kCiWindow;
  cfg.wide_bus = true;
  return cfg;
}

core::CoreConfig vect(uint32_t ports, uint32_t regs, uint32_t replicas) {
  core::CoreConfig cfg = base(ports, regs);
  cfg.policy = core::Policy::kVect;
  cfg.wide_bus = true;
  cfg.replicas = replicas;
  return cfg;
}

core::CoreConfig from_spec(std::string_view spec) {
  const auto fail = [&](const std::string& why) -> core::CoreConfig {
    throw util::UsageError("config spec '" + std::string(spec) + "': " + why +
                           " (expected <family>:<ports>:<regs>"
                           "[:<extra>...], e.g. ci:2:512)");
  };
  std::vector<std::string> parts;
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t colon = spec.find(':', pos);
    const size_t end = colon == std::string_view::npos ? spec.size() : colon;
    parts.emplace_back(spec.substr(pos, end - pos));
    if (colon == std::string_view::npos) break;
    pos = colon + 1;
  }
  if (parts.size() < 3) return fail("too few fields");
  const std::string family = parts[0];

  std::vector<uint32_t> nums;
  for (size_t i = 1; i < parts.size(); ++i) {
    uint64_t v = 0;
    try {
      v = util::parse_decimal("config field", parts[i]);
    } catch (const std::runtime_error&) {
      return fail("'" + parts[i] + "' is not a number");
    }
    if (v == 0 || v > UINT32_MAX) {
      return fail("'" + parts[i] + "' is not a positive 32-bit number");
    }
    nums.push_back(static_cast<uint32_t>(v));
  }
  const uint32_t ports = nums[0];
  const uint32_t regs = nums[1];
  const auto arity = [&](size_t lo, size_t hi) {
    if (nums.size() < lo || nums.size() > hi) {
      fail("wrong number of fields for family '" + family + "'");
    }
  };
  if (family == "scal") {
    arity(2, 2);
    return scal(ports, regs);
  }
  if (family == "wb") {
    arity(2, 2);
    return wb(ports, regs);
  }
  if (family == "ci") {
    arity(2, 3);
    return nums.size() > 2 ? ci(ports, regs, nums[2]) : ci(ports, regs);
  }
  if (family == "ci-iw") {
    arity(2, 2);
    return ci_window(ports, regs);
  }
  if (family == "vect") {
    arity(2, 3);
    return nums.size() > 2 ? vect(ports, regs, nums[2]) : vect(ports, regs);
  }
  if (family == "ci-h") {
    arity(3, 4);
    return nums.size() > 3 ? ci_specmem(ports, regs, nums[2], nums[3])
                           : ci_specmem(ports, regs, nums[2]);
  }
  return fail("unknown family '" + family + "'");
}

}  // namespace cfir::sim::presets
