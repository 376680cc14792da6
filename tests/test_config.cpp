// CoreConfig's X-macro field list (CFIR_CORECONFIG_FIELDS) is the single
// source of truth for digest(), the byte codec and the name/value
// enumeration. These tests close the drift loopholes:
//
//  - flipping EVERY listed field changes digest() — a field added to the
//    struct and the list but mis-encoded (or shadowed) cannot hide;
//  - the field count here is asserted against fields().size(), so a field
//    added to the struct without hash coverage fails this suite the moment
//    the list is (correctly) extended, and sizeof-coverage keeps honest;
//  - serialize ∘ deserialize is the identity (manifest-embedded configs
//    rebuild exactly), and truncated blobs are rejected;
//  - preset specs (sim::presets::from_spec) parse to the presets they name
//    and reject malformed input;
//  - a cache or predictor geometry the components cannot index (zero
//    sizes, masked sizes that are not powers of two) is rejected with
//    util::BadGeometry, naming the component and value, when a Simulator
//    is built — in every build type, since configs arrive from manifests.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "isa/assembler.hpp"
#include "sim/presets.hpp"
#include "sim/simulator.hpp"
#include "util/warmable.hpp"

namespace cfir::core {
namespace {

struct FieldMutator {
  const char* name;
  std::function<void(CoreConfig&)> flip;
};

/// One mutator per X-macro entry: numbers bump by one, booleans toggle,
/// the policy cycles to the next enumerator.
std::vector<FieldMutator> field_mutators() {
#define CFIR_TST_MUT_u32(f) \
  [](CoreConfig& c) { c.f += 1; }
#define CFIR_TST_MUT_u64(f) \
  [](CoreConfig& c) { c.f += 1; }
#define CFIR_TST_MUT_boolean(f) \
  [](CoreConfig& c) { c.f = !c.f; }
#define CFIR_TST_MUT_policy(f)                                        \
  [](CoreConfig& c) {                                                 \
    c.f = static_cast<Policy>((static_cast<uint8_t>(c.f) + 1) % 4);   \
  }
#define X(kind, field) FieldMutator{#field, CFIR_TST_MUT_##kind(field)},
  return {CFIR_CORECONFIG_FIELDS(X)};
#undef X
#undef CFIR_TST_MUT_u32
#undef CFIR_TST_MUT_u64
#undef CFIR_TST_MUT_boolean
#undef CFIR_TST_MUT_policy
}

TEST(CoreConfigDigest, EveryFieldFlipChangesDigest) {
  const CoreConfig base;
  const uint64_t base_digest = base.digest();
  for (const FieldMutator& m : field_mutators()) {
    CoreConfig flipped = base;
    m.flip(flipped);
    EXPECT_NE(flipped.digest(), base_digest)
        << "field '" << m.name
        << "' is listed in CFIR_CORECONFIG_FIELDS but a flip does not "
           "change digest() — encoding bug or duplicate entry";
  }
}

TEST(CoreConfigDigest, FieldListMatchesEnumerationAndIsDistinct) {
  const CoreConfig base;
  const auto mutators = field_mutators();
  const auto named = base.fields();
  ASSERT_EQ(named.size(), mutators.size());
  std::set<std::string> names;
  for (size_t i = 0; i < named.size(); ++i) {
    EXPECT_STREQ(named[i].name, mutators[i].name) << i;
    names.insert(named[i].name);
  }
  EXPECT_EQ(names.size(), named.size()) << "duplicate field names";
  // The enumeration reflects live values, not defaults.
  CoreConfig tweaked = base;
  tweaked.num_phys_regs = 777;
  bool found = false;
  for (const auto& nv : tweaked.fields()) {
    if (std::string(nv.name) == "num_phys_regs") {
      EXPECT_EQ(nv.value, 777u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CoreConfigCodec, SerializeDeserializeIsIdentity) {
  CoreConfig cfg = sim::presets::ci_specmem(2, 512, 768, 6);
  cfg.wide_bus = true;
  cfg.watchdog_cycles = 1234567;
  util::ByteWriter out;
  cfg.serialize(out);
  const std::vector<uint8_t> bytes = out.data();

  util::ByteReader in(bytes);
  const CoreConfig back = CoreConfig::deserialize(in);
  EXPECT_TRUE(in.done());
  EXPECT_EQ(back.digest(), cfg.digest());

  util::ByteWriter again;
  back.serialize(again);
  EXPECT_EQ(again.data(), bytes);

  // Truncated blobs fail loudly instead of zero-filling fields.
  std::vector<uint8_t> cut(bytes.begin(), bytes.end() - 3);
  util::ByteReader short_in(cut);
  EXPECT_THROW((void)CoreConfig::deserialize(short_in), std::runtime_error);
}

TEST(PresetSpec, ParsesFamiliesAndRejectsGarbage) {
  EXPECT_EQ(sim::presets::from_spec("ci:2:512").digest(),
            sim::presets::ci(2, 512).digest());
  EXPECT_EQ(sim::presets::from_spec("ci:2:512:6").digest(),
            sim::presets::ci(2, 512, 6).digest());
  EXPECT_EQ(sim::presets::from_spec("scal:1:256").digest(),
            sim::presets::scal(1, 256).digest());
  EXPECT_EQ(sim::presets::from_spec("wb:2:128").digest(),
            sim::presets::wb(2, 128).digest());
  EXPECT_EQ(sim::presets::from_spec("ci-iw:2:512").digest(),
            sim::presets::ci_window(2, 512).digest());
  EXPECT_EQ(sim::presets::from_spec("vect:2:512:8").digest(),
            sim::presets::vect(2, 512, 8).digest());
  EXPECT_EQ(sim::presets::from_spec("ci-h:2:512:768").digest(),
            sim::presets::ci_specmem(2, 512, 768).digest());

  EXPECT_THROW((void)sim::presets::from_spec(""), std::runtime_error);
  EXPECT_THROW((void)sim::presets::from_spec("ci"), std::runtime_error);
  EXPECT_THROW((void)sim::presets::from_spec("ci:2"), std::runtime_error);
  EXPECT_THROW((void)sim::presets::from_spec("doom:2:512"),
               std::runtime_error);
  EXPECT_THROW((void)sim::presets::from_spec("ci:2:512:4:9"),
               std::runtime_error);
  EXPECT_THROW((void)sim::presets::from_spec("ci:two:512"),
               std::runtime_error);
  EXPECT_THROW((void)sim::presets::from_spec("ci:2:0"), std::runtime_error);
  EXPECT_THROW((void)sim::presets::from_spec("ci: 2:512"),
               std::runtime_error);
  EXPECT_THROW((void)sim::presets::from_spec("ci:+2:512"),
               std::runtime_error);
  EXPECT_THROW((void)sim::presets::from_spec("ci:2:4294967808"),
               std::runtime_error);
  EXPECT_THROW((void)sim::presets::from_spec("scal:1:256:4"),
               std::runtime_error);
}

TEST(Geometry, BadGeometryIsRejectedWhenASimulatorIsBuilt) {
  isa::Assembler as;
  as.movi(1, 1);
  as.halt();
  const isa::Program program = as.assemble();
  struct Case {
    const char* name;
    std::function<void(CoreConfig&)> edit;
    std::vector<std::string> message;  ///< substrings of what()
  };
  const std::vector<Case> cases = {
      {"48KB 2-way L1D",
       [](CoreConfig& c) { c.memory.l1d.size_bytes = 48 * 1024; },
       {"L1D", "set count 768"}},
      {"L1D line 48", [](CoreConfig& c) { c.memory.l1d.line_bytes = 48; },
       {"L1D", "line size 48"}},
      {"L1D line 0", [](CoreConfig& c) { c.memory.l1d.line_bytes = 0; },
       {"L1D", "line size"}},
      {"zero-way L1D", [](CoreConfig& c) { c.memory.l1d.assoc = 0; },
       {"L1D", "way count"}},
      {"L2 smaller than a set",
       [](CoreConfig& c) { c.memory.l2.size_bytes = 64; },
       {"L2", "set count"}},
      {"L3 line 96", [](CoreConfig& c) { c.memory.l3.line_bytes = 96; },
       {"L3", "line size 96"}},
      {"L1I 3 sets",
       [](CoreConfig& c) { c.memory.l1i.size_bytes = 3 * 2 * 64; },
       {"L1I", "set count 3"}},
      {"gshare 1000", [](CoreConfig& c) { c.gshare_entries = 1000; },
       {"Gshare", "entry count 1000"}},
      {"gshare 0", [](CoreConfig& c) { c.gshare_entries = 0; },
       {"Gshare", "entry count"}},
      {"MBS 48 sets", [](CoreConfig& c) { c.mbs_sets = 48; },
       {"MbsTable", "set count 48"}},
      {"MBS 0 ways", [](CoreConfig& c) { c.mbs_ways = 0; },
       {"MbsTable", "way count"}},
      {"stride 100 sets", [](CoreConfig& c) { c.stride_sets = 100; },
       {"StridePredictor", "set count 100"}},
      {"stride 0 ways", [](CoreConfig& c) { c.stride_ways = 0; },
       {"StridePredictor", "way count"}},
      {"SRSMT 0 sets", [](CoreConfig& c) { c.srsmt_sets = 0; },
       {"Srsmt", "set count"}},
      {"SRSMT 12 sets", [](CoreConfig& c) { c.srsmt_sets = 12; },
       {"Srsmt", "set count 12"}},
      {"SRSMT 0 ways", [](CoreConfig& c) { c.srsmt_ways = 0; },
       {"Srsmt", "way count"}},
  };
  for (const Case& k : cases) {
    CoreConfig config = sim::presets::ci(2, 256);
    k.edit(config);
    try {
      sim::Simulator sim(config, program);
      ADD_FAILURE() << k.name << ": built without an error";
    } catch (const util::BadGeometry& e) {
      for (const std::string& part : k.message) {
        EXPECT_NE(std::string(e.what()).find(part), std::string::npos)
            << k.name << ": '" << e.what() << "' lacks '" << part << "'";
      }
    }
  }
  // Way counts need not be powers of two: a 3-way L1D builds and runs.
  CoreConfig three_way = sim::presets::ci(2, 256);
  three_way.memory.l1d = {"L1D", 96 * 1024, 3, 32, 1};
  sim::Simulator sim(three_way, program);
  EXPECT_EQ(sim.run(10).committed, 1u);
}

}  // namespace
}  // namespace cfir::core
