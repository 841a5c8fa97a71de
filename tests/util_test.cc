/**
 * @file
 * Unit tests for the util library: RNG determinism and distribution
 * sanity, running statistics, histograms, edit distance and bit helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "util/bits.hh"
#include "util/edit_distance.hh"
#include "util/json.hh"
#include "util/pod_codec.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/text_table.hh"

namespace darkside {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(11);
    RunningStats stats;
    for (int i = 0; i < 50000; ++i)
        stats.add(rng.uniform());
    EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversAllResidues)
{
    Rng rng(5);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, RangeInclusiveBounds)
{
    Rng rng(9);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        hit_lo |= v == -3;
        hit_hi |= v == 3;
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    RunningStats stats;
    for (int i = 0; i < 100000; ++i)
        stats.add(rng.gaussian());
    EXPECT_NEAR(stats.mean(), 0.0, 0.02);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, GaussianScaled)
{
    Rng rng(17);
    RunningStats stats;
    for (int i = 0; i < 50000; ++i)
        stats.add(rng.gaussian(5.0, 2.0));
    EXPECT_NEAR(stats.mean(), 5.0, 0.06);
    EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ChanceProbability)
{
    Rng rng(19);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, CategoricalFollowsWeights)
{
    Rng rng(23);
    std::vector<double> weights{1.0, 3.0, 6.0};
    std::vector<int> counts(3, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[rng.categorical(weights)];
    EXPECT_NEAR(counts[0] / 100000.0, 0.1, 0.01);
    EXPECT_NEAR(counts[1] / 100000.0, 0.3, 0.01);
    EXPECT_NEAR(counts[2] / 100000.0, 0.6, 0.01);
}

TEST(Rng, CategoricalSkipsZeroWeights)
{
    Rng rng(29);
    std::vector<double> weights{0.0, 1.0, 0.0};
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.categorical(weights), 1u);
}

TEST(Rng, PermutationIsPermutation)
{
    Rng rng(31);
    const auto perm = rng.permutation(100);
    std::set<std::uint32_t> seen(perm.begin(), perm.end());
    EXPECT_EQ(seen.size(), 100u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, ForkDecorrelates)
{
    Rng parent(37);
    Rng child = parent.fork();
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += parent.next() == child.next() ? 1 : 0;
    EXPECT_LT(equal, 2);
}

TEST(RunningStats, Empty)
{
    RunningStats stats;
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_EQ(stats.mean(), 0.0);
    EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStats, KnownValues)
{
    RunningStats stats;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stats.add(v);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 4.0);
    EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
    EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential)
{
    Rng rng(41);
    RunningStats whole, left, right;
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.gaussian(3.0, 1.5);
        whole.add(v);
        (i < 400 ? left : right).add(v);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), whole.count());
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-10);
}

TEST(RunningStats, MergeWithEmpty)
{
    RunningStats a, b;
    a.add(1.0);
    a.add(2.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    b.merge(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(Histogram, BucketsAndEdges)
{
    Histogram h(0.0, 1.0, 10);
    h.add(0.05);
    h.add(0.95);
    h.add(-1.0);
    h.add(2.0);
    h.add(1.0); // at hi -> overflow
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(9), 1u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.count(), 5u);
}

TEST(Histogram, QuantileApproximation)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(i + 0.5);
    EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
    EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
}

TEST(Histogram, RenderNonEmpty)
{
    Histogram h(0.0, 1.0, 4);
    h.add(0.1);
    EXPECT_FALSE(h.render().empty());
}

TEST(PercentileTracker, ExactPercentiles)
{
    PercentileTracker tracker;
    for (int i = 1; i <= 100; ++i)
        tracker.add(i);
    EXPECT_DOUBLE_EQ(tracker.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(tracker.percentile(100.0), 100.0);
    EXPECT_NEAR(tracker.percentile(50.0), 50.5, 1e-9);
    EXPECT_NEAR(tracker.percentile(99.0), 99.01, 0.1);
    EXPECT_DOUBLE_EQ(tracker.mean(), 50.5);
    EXPECT_DOUBLE_EQ(tracker.max(), 100.0);
}

TEST(EditDistance, IdenticalSequences)
{
    const std::vector<std::uint32_t> seq{1, 2, 3, 4};
    const EditStats stats = alignSequences(seq, seq);
    EXPECT_EQ(stats.errors(), 0u);
    EXPECT_DOUBLE_EQ(stats.wordErrorRate(), 0.0);
}

TEST(EditDistance, PureSubstitution)
{
    const EditStats stats = alignSequences({1, 2, 3}, {1, 9, 3});
    EXPECT_EQ(stats.substitutions, 1u);
    EXPECT_EQ(stats.insertions, 0u);
    EXPECT_EQ(stats.deletions, 0u);
    EXPECT_NEAR(stats.wordErrorRate(), 1.0 / 3.0, 1e-12);
}

TEST(EditDistance, PureInsertion)
{
    const EditStats stats = alignSequences({1, 2}, {1, 5, 2});
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.errors(), 1u);
}

TEST(EditDistance, PureDeletion)
{
    const EditStats stats = alignSequences({1, 2, 3}, {1, 3});
    EXPECT_EQ(stats.deletions, 1u);
    EXPECT_EQ(stats.errors(), 1u);
}

TEST(EditDistance, EmptyReference)
{
    const EditStats stats = alignSequences({}, {1, 2});
    EXPECT_EQ(stats.insertions, 2u);
    EXPECT_DOUBLE_EQ(stats.wordErrorRate(), 1.0);
}

TEST(EditDistance, EmptyHypothesis)
{
    const EditStats stats = alignSequences({1, 2, 3}, {});
    EXPECT_EQ(stats.deletions, 3u);
    EXPECT_DOUBLE_EQ(stats.wordErrorRate(), 1.0);
}

TEST(EditDistance, MergeAccumulates)
{
    EditStats a = alignSequences({1, 2, 3}, {1, 2, 4});
    const EditStats b = alignSequences({5, 6}, {5, 6});
    a.merge(b);
    EXPECT_EQ(a.referenceLength, 5u);
    EXPECT_EQ(a.errors(), 1u);
    EXPECT_DOUBLE_EQ(a.wordErrorRate(), 0.2);
}

TEST(EditDistance, MinimalAlignmentChosen)
{
    // hyp shifted by one: optimal is 1 deletion + 1 insertion (2), not
    // 4 substitutions.
    const EditStats stats = alignSequences({1, 2, 3, 4}, {2, 3, 4, 5});
    EXPECT_EQ(stats.errors(), 2u);
}

TEST(Bits, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(1024));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(12));
}

TEST(Bits, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(1023), 9u);
    EXPECT_EQ(floorLog2(1024), 10u);
}

TEST(Bits, CeilPowerOfTwo)
{
    EXPECT_EQ(ceilPowerOfTwo(1), 1ull);
    EXPECT_EQ(ceilPowerOfTwo(3), 4ull);
    EXPECT_EQ(ceilPowerOfTwo(1024), 1024ull);
    EXPECT_EQ(ceilPowerOfTwo(1025), 2048ull);
}

TEST(Bits, XorFoldHashInRange)
{
    for (std::uint64_t key = 0; key < 10000; key += 37)
        EXPECT_LT(xorFoldHash(key, 7), 128u);
}

TEST(Bits, XorFoldHashSpreads)
{
    std::set<std::uint32_t> values;
    for (std::uint64_t key = 0; key < 4096; ++key)
        values.insert(xorFoldHash(key, 10));
    // Consecutive keys must spread over most of the 1024 buckets.
    EXPECT_GT(values.size(), 900u);
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable table;
    table.header({"a", "bbbb"});
    table.row({"xxx", "1"});
    const std::string out = table.render();
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("xxx"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(TextTable, NumFormatsPrecision)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(Json, ParsesScalars)
{
    std::string error;
    EXPECT_TRUE(JsonValue::parse("null", &error).isNull());
    EXPECT_TRUE(error.empty());
    EXPECT_EQ(JsonValue::parse("true", &error).asBool(), true);
    EXPECT_EQ(JsonValue::parse("false", &error).asBool(), false);
    EXPECT_DOUBLE_EQ(JsonValue::parse("-2.5e2", &error).asNumber(),
                     -250.0);
    EXPECT_EQ(JsonValue::parse("\"hi\"", &error).asString(), "hi");
    EXPECT_TRUE(error.empty());
}

TEST(Json, ParsesNestedStructure)
{
    std::string error;
    const JsonValue v = JsonValue::parse(
        "{\"a\": [1, 2, {\"b\": true}], \"c\": \"x\"}", &error);
    ASSERT_TRUE(error.empty()) << error;
    ASSERT_TRUE(v.isObject());
    const JsonValue *a = v.member("a");
    ASSERT_NE(a, nullptr);
    ASSERT_EQ(a->asArray().size(), 3u);
    EXPECT_DOUBLE_EQ(a->asArray()[0].asNumber(), 1.0);
    EXPECT_TRUE(a->asArray()[2].member("b")->asBool());
    EXPECT_EQ(v.member("c")->asString(), "x");
    EXPECT_EQ(v.member("missing"), nullptr);
}

TEST(Json, PreservesMemberOrder)
{
    std::string error;
    const JsonValue v =
        JsonValue::parse("{\"z\": 1, \"a\": 2, \"m\": 3}", &error);
    ASSERT_TRUE(error.empty());
    ASSERT_EQ(v.asObject().size(), 3u);
    EXPECT_EQ(v.asObject()[0].first, "z");
    EXPECT_EQ(v.asObject()[1].first, "a");
    EXPECT_EQ(v.asObject()[2].first, "m");
}

TEST(Json, DecodesStringEscapes)
{
    std::string error;
    const JsonValue v = JsonValue::parse(
        "\"a\\\"b\\\\c\\n\\t\\u0041\"", &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(v.asString(), "a\"b\\c\n\tA");
}

TEST(Json, RejectsMalformedInput)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated",
          "{\"a\" 1}", "[1 2]"}) {
        std::string error;
        JsonValue::parse(bad, &error);
        EXPECT_FALSE(error.empty()) << "accepted: " << bad;
    }
}

TEST(Json, NonNegativeIntegerPredicate)
{
    std::string error;
    EXPECT_TRUE(JsonValue::parse("42", &error).isNonNegativeInteger());
    EXPECT_TRUE(JsonValue::parse("0", &error).isNonNegativeInteger());
    EXPECT_FALSE(
        JsonValue::parse("-1", &error).isNonNegativeInteger());
    EXPECT_FALSE(
        JsonValue::parse("1.5", &error).isNonNegativeInteger());
    EXPECT_FALSE(
        JsonValue::parse("true", &error).isNonNegativeInteger());
}

TEST(PodCodec, VectorCountIsCheckedAgainstTheBytesLeft)
{
    // Two u32 values after an 8-byte header, then a stray byte.
    std::string bytes(8, '\0');
    appendPod<std::uint32_t>(bytes, 7);
    appendPod<std::uint32_t>(bytes, 9);
    bytes += 'x';

    // The exact fit of two values, and an empty vector.
    std::size_t offset = 8;
    std::vector<std::uint32_t> v;
    ASSERT_TRUE(consumePodVector(bytes, offset, 2, v));
    EXPECT_EQ(v, (std::vector<std::uint32_t>{7, 9}));
    EXPECT_EQ(offset, 16u);
    ASSERT_TRUE(consumePodVector(bytes, offset, 0, v));
    EXPECT_TRUE(v.empty());

    // One element short, and counts whose byte size wraps (2^62 + 1
    // and 2^64 - 1 values of 4 bytes): refused before v is sized.
    for (const std::uint64_t count :
         {std::uint64_t{3}, (std::uint64_t{1} << 62) + 1,
          ~std::uint64_t{0}}) {
        offset = 8;
        v = {1};
        EXPECT_FALSE(consumePodVector(bytes, offset, count, v)) << count;
        EXPECT_EQ(offset, 8u);
        EXPECT_EQ(v, std::vector<std::uint32_t>{1});
    }
}

} // namespace
} // namespace darkside
