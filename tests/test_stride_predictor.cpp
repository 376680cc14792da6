#include "ci/stride_predictor.hpp"

#include <gtest/gtest.h>

#include <random>

namespace cfir::ci {
namespace {

TEST(StridePredictor, LearnsConstantStride) {
  StridePredictor sp;
  const uint64_t pc = 0x1000;
  for (int i = 0; i < 5; ++i) {
    sp.train(pc, 0x100000 + static_cast<uint64_t>(i) * 8);
  }
  const auto info = sp.lookup(pc);
  ASSERT_TRUE(info.known);
  EXPECT_TRUE(info.confident);
  EXPECT_EQ(info.stride, 8);
  EXPECT_EQ(info.last_addr, 0x100000u + 4 * 8);
}

TEST(StridePredictor, UnknownPc) {
  StridePredictor sp;
  EXPECT_FALSE(sp.lookup(0x4242).known);
}

TEST(StridePredictor, NegativeStride) {
  StridePredictor sp;
  const uint64_t pc = 0x2000;
  for (int i = 0; i < 5; ++i) {
    sp.train(pc, 0x200000 - static_cast<uint64_t>(i) * 16);
  }
  const auto info = sp.lookup(pc);
  EXPECT_TRUE(info.confident);
  EXPECT_EQ(info.stride, -16);
}

TEST(StridePredictor, StrideChangeDropsConfidenceAndSelection) {
  StridePredictor sp;
  const uint64_t pc = 0x3000;
  for (int i = 0; i < 6; ++i) {
    sp.train(pc, 0x100000 + static_cast<uint64_t>(i) * 8);
  }
  EXPECT_TRUE(sp.select(pc, 0x77));
  EXPECT_TRUE(sp.lookup(pc).selected);
  // Break the pattern repeatedly: random-ish addresses.
  sp.train(pc, 0x900000);
  sp.train(pc, 0x5000);
  sp.train(pc, 0x123456);
  sp.train(pc, 0x77777);
  const auto info = sp.lookup(pc);
  EXPECT_FALSE(info.confident);
  EXPECT_FALSE(info.selected);  // S flag cleared when the stream died
}

TEST(StridePredictor, SelectionRequiresEntry) {
  StridePredictor sp;
  EXPECT_FALSE(sp.select(0xAAAA, 1));
  sp.train(0xAAAA, 0x100);
  EXPECT_TRUE(sp.select(0xAAAA, 0x99));
  EXPECT_EQ(sp.lookup(0xAAAA).origin_branch_pc, 0x99u);
  sp.clear_selection(0xAAAA);
  EXPECT_FALSE(sp.lookup(0xAAAA).selected);
}

TEST(StridePredictor, ConfidenceIsTwoBitSaturating) {
  StridePredictor sp;
  const uint64_t pc = 0x5000;
  // Warmup: first train only records the address, second learns the
  // stride; repeats then raise the 2-bit counter toward saturation.
  sp.train(pc, 100);
  sp.train(pc, 108);   // stride learned, confidence 0
  EXPECT_FALSE(sp.lookup(pc).confident);
  sp.train(pc, 116);   // confidence 1
  EXPECT_FALSE(sp.lookup(pc).confident);
  sp.train(pc, 124);   // confidence 2: trusted ("greater than 1")
  EXPECT_TRUE(sp.lookup(pc).confident);
  sp.train(pc, 132);   // confidence 3 (saturates)
  // One break decrements but stays confident (3 -> 2).
  sp.train(pc, 0x900000);
  EXPECT_TRUE(sp.lookup(pc).confident);
  // A second break drops below the threshold.
  sp.train(pc, 0x5);
  EXPECT_FALSE(sp.lookup(pc).confident);
}

TEST(StridePredictor, SetAssociativeEviction) {
  StridePredictor sp(2, 2);  // 2 sets x 2 ways
  // Four PCs mapping to set 0 (pc>>2 even).
  const uint64_t pcs[3] = {0x00, 0x10, 0x20};
  for (uint64_t pc : pcs) sp.train(pc, 0x100);
  // Only two ways: the LRU (0x00) must have been evicted.
  EXPECT_FALSE(sp.lookup(0x00).known);
  EXPECT_TRUE(sp.lookup(0x10).known);
  EXPECT_TRUE(sp.lookup(0x20).known);
}

TEST(StridePredictor, TrainAndSelectMatchesTrainLookupSelect) {
  // train_and_select must leave the table exactly as train + lookup +
  // select does under the vect commit rule, over a load stream that
  // evicts, breaks strides, and mixes in episode selections (non-zero
  // origins that must survive) and clears.
  StridePredictor fused(4, 2), ref(4, 2);
  std::mt19937_64 gen(7);
  constexpr int kPcs = 12;
  uint64_t next_addr[kPcs];
  int64_t stride[kPcs];
  for (int i = 0; i < kPcs; ++i) {
    next_addr[i] = 0x10000 * static_cast<uint64_t>(i + 1);
    stride[i] = 8 * static_cast<int64_t>(i % 4);
  }
  int rule_fired = 0, origin_kept = 0;
  for (int step = 0; step < 20000; ++step) {
    const int i = static_cast<int>(gen() % kPcs);
    const uint64_t pc = 0x400 + 4 * static_cast<uint64_t>(i);
    const uint64_t roll = gen() % 64;
    if (roll < 3) {
      const uint64_t origin = 0x1000 + gen() % 0x100;
      EXPECT_EQ(fused.select(pc, origin), ref.select(pc, origin));
    } else if (roll < 4) {
      fused.clear_selection(pc);
      ref.clear_selection(pc);
    } else {
      if (roll < 8) stride[i] = 8 * static_cast<int64_t>(gen() % 4) - 8;
      const uint64_t addr =
          roll < 12 ? gen() % 0x100000 : (next_addr[i] += stride[i]);
      const StridePredictor::Info before = ref.lookup(pc);
      fused.train_and_select(pc, addr);
      ref.train(pc, addr);
      const StridePredictor::Info sp = ref.lookup(pc);
      if (sp.confident && !sp.selected && sp.stride != 0) {
        ref.select(pc, 0);
        ++rule_fired;
      } else if (before.selected && sp.selected &&
                 sp.origin_branch_pc != 0) {
        ++origin_kept;
      }
    }
    ASSERT_EQ(fused.debug_digest(), ref.debug_digest()) << "step " << step;
  }
  EXPECT_GT(rule_fired, 100);
  EXPECT_GT(origin_kept, 10);
}

TEST(StridePredictor, StorageBudgetMatchesPaper) {
  StridePredictor sp(256, 4);
  EXPECT_EQ(sp.storage_bytes(), 24576u);  // section 3.1
}

}  // namespace
}  // namespace cfir::ci
