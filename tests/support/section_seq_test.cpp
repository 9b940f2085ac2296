#include "support/section_seq.hpp"

#include <gtest/gtest.h>

#include "support/rng.hpp"

namespace cypress {
namespace {

TEST(SectionSeq, ConstantRunCompressesToOneSection) {
  SectionSeq q;
  for (int i = 0; i < 1000; ++i) q.append(7);
  EXPECT_EQ(q.size(), 1000u);
  ASSERT_EQ(q.sectionCount(), 1u);
  EXPECT_EQ(q.sections()[0], (Section{7, 0, 1000}));
  EXPECT_TRUE(q.isConstant(7));
  EXPECT_FALSE(q.isConstant(8));
}

TEST(SectionSeq, AffineRunCompressesToOneSection) {
  // The paper's <0, k-1, 1> tuple: iteration counts 0,1,2,...,k-1.
  SectionSeq q;
  for (int i = 0; i < 500; ++i) q.append(i);
  ASSERT_EQ(q.sectionCount(), 1u);
  EXPECT_EQ(q.sections()[0], (Section{0, 1, 500}));
}

TEST(SectionSeq, StrideTwoPattern) {
  // Branch outcomes <0, 8, 2> from the paper's Figure 11.
  SectionSeq q;
  for (int i = 0; i <= 8; i += 2) q.append(i);
  ASSERT_EQ(q.sectionCount(), 1u);
  EXPECT_EQ(q.sections()[0], (Section{0, 2, 5}));
  EXPECT_EQ(q.sections()[0].last(), 8);
}

TEST(SectionSeq, NegativeStride) {
  SectionSeq q;
  for (int i = 10; i >= 0; i -= 3) q.append(i);
  ASSERT_EQ(q.sectionCount(), 1u);
  EXPECT_EQ(q.sections()[0], (Section{10, -3, 4}));
}

TEST(SectionSeq, MixedContentSplitsSections) {
  SectionSeq q;
  for (int64_t v : {5, 5, 5, 0, 1, 2, 3, 9}) q.append(v);
  EXPECT_EQ(q.size(), 8u);
  EXPECT_LE(q.sectionCount(), 3u);
  EXPECT_EQ(q.expand(), (std::vector<int64_t>{5, 5, 5, 0, 1, 2, 3, 9}));
}

TEST(SectionSeq, AtMatchesExpand) {
  SectionSeq q;
  std::vector<int64_t> vals = {1, 1, 2, 4, 6, 8, 3, 3, 3, -5};
  for (auto v : vals) q.append(v);
  for (size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(q.at(i), vals[i]);
  EXPECT_THROW(q.at(vals.size()), Error);
}

TEST(SectionSeq, CursorWalksAllValues) {
  SectionSeq q;
  for (int i = 0; i < 100; ++i) q.append(i % 7);
  auto c = q.cursor();
  for (int i = 0; i < 100; ++i) {
    ASSERT_FALSE(c.done());
    EXPECT_EQ(c.next(), i % 7);
  }
  EXPECT_TRUE(c.done());
  EXPECT_THROW(c.next(), Error);
}

TEST(SectionSeq, AppendRunMergesConstantTail) {
  SectionSeq q;
  q.appendRun(3, 10);
  q.appendRun(3, 5);
  ASSERT_EQ(q.sectionCount(), 1u);
  EXPECT_EQ(q.size(), 15u);
  q.appendRun(4, 2);
  EXPECT_EQ(q.size(), 17u);
  EXPECT_EQ(q.at(15), 4);
}

TEST(SectionSeq, PropertyRandomSequencesRoundTrip) {
  // Lossless on arbitrary content, including pathological switches.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    std::vector<int64_t> vals;
    const int n = static_cast<int>(rng.range(0, 300));
    for (int i = 0; i < n; ++i) {
      // Mixture: constants, ramps, noise.
      switch (rng.below(3)) {
        case 0: vals.push_back(rng.range(-5, 5)); break;
        case 1: vals.push_back(i); break;
        default: vals.push_back(rng.range(-1000000, 1000000)); break;
      }
    }
    SectionSeq q = SectionSeq::compress(vals);
    EXPECT_EQ(q.size(), vals.size());
    EXPECT_EQ(q.expand(), vals) << "seed " << seed;

    ByteWriter w;
    q.serialize(w);
    ByteReader r(w.bytes());
    SectionSeq back = SectionSeq::deserialize(r);
    EXPECT_EQ(back, q) << "seed " << seed;
    EXPECT_EQ(back.expand(), vals) << "seed " << seed;
  }
}

TEST(SectionSeq, RangeArithmeticMatchesBruteForce) {
  // prefixSum / countBelow / countInRange against the expanded values,
  // over random mixtures that split into many sections of every stride
  // sign. These back the compressed-domain query engine, so the
  // arithmetic must be exact on arbitrary content.
  for (uint64_t seed = 100; seed < 120; ++seed) {
    Rng rng(seed);
    std::vector<int64_t> vals;
    const int n = static_cast<int>(rng.range(1, 200));
    for (int i = 0; i < n; ++i) {
      switch (rng.below(4)) {
        case 0: vals.push_back(rng.range(-5, 5)); break;
        case 1: vals.push_back(i); break;
        case 2: vals.push_back(100 - 3 * i); break;
        default: vals.push_back(rng.range(-500, 500)); break;
      }
    }
    const SectionSeq q = SectionSeq::compress(vals);

    int64_t sum = 0;
    for (size_t k = 0; k <= vals.size(); ++k) {
      EXPECT_EQ(q.prefixSum(k), sum) << "seed " << seed << " k " << k;
      if (k < vals.size()) sum += vals[k];
    }
    EXPECT_EQ(q.sum(), sum) << "seed " << seed;
    EXPECT_THROW(q.prefixSum(vals.size() + 1), Error);

    for (int64_t v : {-501ll, -5ll, 0ll, 3ll, 99ll, 501ll}) {
      uint64_t below = 0;
      for (int64_t x : vals)
        if (x < v) ++below;
      EXPECT_EQ(q.countBelow(v), below) << "seed " << seed << " v " << v;
    }
    for (int t = 0; t < 10; ++t) {
      const int64_t lo = rng.range(-600, 600);
      const int64_t hi = rng.range(-600, 600);
      uint64_t want = 0;
      for (int64_t x : vals)
        if (x >= lo && x < hi) ++want;
      if (hi <= lo) want = 0;
      EXPECT_EQ(q.countInRange(lo, hi), want)
          << "seed " << seed << " [" << lo << "," << hi << ")";
    }
  }
}

TEST(SectionSeq, RangeArithmeticOnEmptyAndSingleton) {
  SectionSeq empty;
  EXPECT_EQ(empty.sum(), 0);
  EXPECT_EQ(empty.prefixSum(0), 0);
  EXPECT_EQ(empty.countBelow(100), 0u);
  SectionSeq one;
  one.append(42);
  EXPECT_EQ(one.prefixSum(1), 42);
  EXPECT_EQ(one.countBelow(42), 0u);
  EXPECT_EQ(one.countBelow(43), 1u);
  EXPECT_EQ(one.countInRange(42, 43), 1u);
}

TEST(SectionSeq, HasNegativeWithoutOverflow) {
  auto seq = [](Section s) {
    SectionSeq q;
    q.appendSection(s);
    return q;
  };
  EXPECT_FALSE(SectionSeq().hasNegative());
  EXPECT_TRUE(SectionSeq::compress({3, 0, -1}).hasNegative());
  EXPECT_FALSE(seq({10, -5, 3}).hasNegative());  // 10, 5, 0
  EXPECT_TRUE(seq({10, -5, 4}).hasNegative());   // ..., -5
  EXPECT_FALSE(seq({INT64_MAX, 1, 1}).hasNegative());
  // The last value of these sections is not representable: the check
  // must not form it.
  EXPECT_TRUE(seq({5, INT64_MIN, 3}).hasNegative());
  EXPECT_TRUE(seq({INT64_MAX, -2, (uint64_t{1} << 62) + 1}).hasNegative());
  EXPECT_FALSE(seq({INT64_MAX, -1, uint64_t{1} << 62}).hasNegative());
}

TEST(SectionSeq, SerializedSizeIsCompactForRegularData) {
  SectionSeq q;
  for (int i = 0; i < 100000; ++i) q.append(42);
  ByteWriter w;
  q.serialize(w);
  EXPECT_LT(w.size(), 16u);  // one section: tiny regardless of run length
}

}  // namespace
}  // namespace cypress
