#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "branch/gshare.hpp"
#include "branch/mbs.hpp"
#include "branch/ras.hpp"

namespace cfir::branch {
namespace {

TEST(Gshare, LearnsBias) {
  Gshare g(1024, 8);
  const uint64_t pc = 0x1000;
  for (int i = 0; i < 8; ++i) {
    const uint64_t snap = g.speculate(g.predict(pc));
    g.train(pc, snap, true);
    g.recover(snap, true);  // keep history aligned with outcomes
  }
  EXPECT_TRUE(g.predict(pc));
}

TEST(Gshare, LearnsAlternationThroughHistory) {
  Gshare g(4096, 8);
  const uint64_t pc = 0x2000;
  // Strict alternation is learnable with history: after warmup the
  // prediction should track the pattern.
  bool outcome = false;
  int correct = 0;
  for (int i = 0; i < 200; ++i) {
    const bool pred = g.predict(pc);
    const uint64_t snap = g.speculate(pred);
    if (i >= 100 && pred == outcome) ++correct;
    g.train(pc, snap, outcome);
    g.recover(snap, outcome);
    outcome = !outcome;
  }
  EXPECT_GT(correct, 90);  // near-perfect after warmup
}

TEST(Gshare, SpeculateAndRecover) {
  Gshare g(1024, 16);
  const uint64_t h0 = g.history();
  const uint64_t snap = g.speculate(true);
  EXPECT_EQ(snap, h0);
  EXPECT_EQ(g.history(), ((h0 << 1) | 1) & 0xFFFF);
  g.recover(snap, false);  // mispredicted: actually not taken
  EXPECT_EQ(g.history(), (h0 << 1) & 0xFFFF);
  g.set_history(0xABC);
  EXPECT_EQ(g.history(), 0xABCu);
}

/// A gshare of `want.size()` entries whose counter table equals `want`
/// (values 0-3; 2 is the reset value), set by training each slot from
/// reset with history 0, so slot s is the counter of pc s << 2.
Gshare gshare_with(const std::vector<uint8_t>& want) {
  Gshare g(static_cast<uint32_t>(want.size()), 16);
  for (size_t slot = 0; slot < want.size(); ++slot) {
    const uint64_t pc = uint64_t{slot} << 2;
    if (want[slot] == 3) g.train(pc, 0, true);
    for (int i = 2; i > want[slot]; --i) g.train(pc, 0, false);
  }
  g.set_history(0xBEEF);
  return g;
}

/// util::write_sparse's encoding of `table`: the layout Gshare::serialize
/// must reproduce byte for byte.
std::vector<uint8_t> generic_snapshot(const std::vector<uint8_t>& table,
                                      uint64_t history) {
  util::ByteWriter out;
  out.u32(static_cast<uint32_t>(table.size()));
  out.u64(history);
  util::write_sparse(out, table, [](uint8_t c) { return c != 2; },
                     [&out](uint8_t c) { out.u8(c); });
  return out.take();
}

TEST(Gshare, SparseSnapshotMatchesGenericWriter) {
  std::vector<std::pair<std::string, std::vector<uint8_t>>> tables;
  tables.emplace_back("all default", std::vector<uint8_t>(1024, 2));
  tables.emplace_back("full", std::vector<uint8_t>(1024, 3));
  // Trained slots at word edges with default runs between them that end
  // inside a word, fill one, and span several.
  std::vector<uint8_t> runs(256, 2);
  for (const size_t slot : {0, 7, 8, 13, 14, 15, 40, 41, 63, 64, 130, 255}) {
    runs[slot] = static_cast<uint8_t>(slot % 3 == 0 ? 0 : slot % 3 == 1 ? 1 : 3);
  }
  tables.emplace_back("default runs across words", runs);
  // Tables smaller than one 8-slot word.
  tables.emplace_back("1 entry", std::vector<uint8_t>{0});
  tables.emplace_back("4 entries", std::vector<uint8_t>{2, 3, 2, 1});
  std::mt19937_64 gen(7);
  for (const size_t entries : {16u, 256u, 4096u, 65536u}) {
    for (const unsigned percent : {1u, 30u, 100u}) {
      std::vector<uint8_t> table(entries, 2);
      for (uint8_t& c : table) {
        if (gen() % 100 < percent) c = static_cast<uint8_t>(gen() % 4);
      }
      tables.emplace_back("random " + std::to_string(entries) + " at " +
                              std::to_string(percent) + "%",
                          table);
    }
  }
  for (const auto& [name, want] : tables) {
    const Gshare g = gshare_with(want);
    util::ByteWriter out;
    g.serialize(out);
    const std::vector<uint8_t> bytes = out.take();
    EXPECT_EQ(bytes, generic_snapshot(want, g.history())) << name;

    Gshare back(static_cast<uint32_t>(want.size()), 16);
    util::ByteReader in(bytes);
    back.deserialize(in);
    EXPECT_TRUE(in.done()) << name;
    EXPECT_EQ(back.debug_digest(), g.debug_digest()) << name;
  }
}

TEST(Ras, PushPopPeek) {
  ReturnAddressStack ras;
  ras.push(0x100);
  ras.push(0x200);
  EXPECT_EQ(ras.depth(), 2);
  EXPECT_EQ(ras.peek(), 0x200u);
  EXPECT_EQ(ras.pop(), 0x200u);
  EXPECT_EQ(ras.pop(), 0x100u);
  EXPECT_EQ(ras.pop(), 0u);  // empty
}

TEST(Ras, SnapshotRestore) {
  ReturnAddressStack ras;
  ras.push(0x100);
  const auto snap = ras.snapshot();
  ras.push(0x200);
  ras.pop();
  ras.pop();
  ras.restore(snap);
  EXPECT_EQ(ras.depth(), 1);
  EXPECT_EQ(ras.peek(), 0x100u);
}

TEST(Ras, OverflowDropsOldest) {
  ReturnAddressStack ras;
  for (int i = 0; i < ReturnAddressStack::kEntries + 4; ++i) {
    ras.push(0x1000 + static_cast<uint64_t>(i) * 4);
  }
  EXPECT_EQ(ras.depth(), ReturnAddressStack::kEntries);
  // Top is the newest push.
  EXPECT_EQ(ras.peek(), 0x1000u + (ReturnAddressStack::kEntries + 3) * 4);
}

TEST(Mbs, UnknownBranchIsEasy) {
  MbsTable mbs;
  EXPECT_FALSE(mbs.is_hard(0x1234));
}

TEST(Mbs, BiasedBranchBecomesEasy) {
  MbsTable mbs;
  const uint64_t pc = 0x100;
  // Repeated taken outcomes saturate the counter at the maximum.
  for (int i = 0; i < 10; ++i) mbs.update(pc, true);
  EXPECT_FALSE(mbs.is_hard(pc));
  // Same for a not-taken-biased branch.
  const uint64_t pc2 = 0x200;
  for (int i = 0; i < 10; ++i) mbs.update(pc2, false);
  EXPECT_FALSE(mbs.is_hard(pc2));
}

TEST(Mbs, FlippingBranchStaysHard) {
  MbsTable mbs;
  const uint64_t pc = 0x300;
  bool t = false;
  for (int i = 0; i < 50; ++i) {
    mbs.update(pc, t);
    t = !t;
  }
  // Direction flips snap the counter to mid-range: hard.
  EXPECT_TRUE(mbs.is_hard(pc));
}

TEST(Mbs, BiasedThenFlipBecomesHardAgain) {
  MbsTable mbs;
  const uint64_t pc = 0x400;
  for (int i = 0; i < 10; ++i) mbs.update(pc, true);
  EXPECT_FALSE(mbs.is_hard(pc));
  mbs.update(pc, false);  // direction change resets to the middle
  EXPECT_TRUE(mbs.is_hard(pc));
}

TEST(Mbs, StorageBudgetMatchesPaper) {
  MbsTable mbs(64, 4);
  EXPECT_EQ(mbs.storage_bytes(), 2048u);  // section 3.1
}

}  // namespace
}  // namespace cfir::branch
