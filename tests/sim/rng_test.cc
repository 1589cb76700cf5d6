/**
 * @file
 * Tests for the deterministic PRNG and the Zipfian generator used by
 * the KVS workloads (paper §5.6: Zipf 0.99 / 0.9999).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "sim/rng.hh"

namespace {

using dagger::sim::Rng;
using dagger::sim::ZipfianGenerator;

TEST(Rng, SameSeedSameSequence)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next64() == b.next64();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, RangeIsBoundedAndCoversAllValues)
{
    Rng r(9);
    std::vector<int> seen(10, 0);
    for (int i = 0; i < 10000; ++i) {
        auto v = r.range(10);
        ASSERT_LT(v, 10u);
        ++seen[v];
    }
    for (int c : seen)
        EXPECT_GT(c, 700); // ~1000 expected each
}

TEST(Rng, BetweenInclusive)
{
    Rng r(11);
    bool lo_seen = false, hi_seen = false;
    for (int i = 0; i < 5000; ++i) {
        auto v = r.between(3, 7);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 7u);
        lo_seen |= v == 3;
        hi_seen |= v == 7;
    }
    EXPECT_TRUE(lo_seen);
    EXPECT_TRUE(hi_seen);
}

TEST(Rng, ExponentialHasRequestedMean)
{
    Rng r(13);
    double sum = 0;
    constexpr int kN = 200000;
    for (int i = 0; i < kN; ++i)
        sum += r.exponential(250.0);
    EXPECT_NEAR(sum / kN, 250.0, 5.0);
}

TEST(Zipf, SamplesStayInRange)
{
    ZipfianGenerator z(1000, 0.99);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(z.next(), 1000u);
}

TEST(Zipf, SkewConcentratesMassOnHotKeys)
{
    ZipfianGenerator z(100000, 0.99);
    std::uint64_t hot = 0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i)
        hot += z.next() < 100; // top 0.1% of key space
    // With theta=0.99 the head is very hot: expect well over 30%.
    EXPECT_GT(hot, kN * 30 / 100);
}

TEST(Zipf, HigherThetaIsMoreSkewed)
{
    ZipfianGenerator lo(100000, 0.90), hi(100000, 0.9999);
    std::uint64_t hot_lo = 0, hot_hi = 0;
    for (int i = 0; i < 50000; ++i) {
        hot_lo += lo.next() < 10;
        hot_hi += hi.next() < 10;
    }
    EXPECT_GT(hot_hi, hot_lo);
}

TEST(Zipf, ThetaZeroIsNearlyUniform)
{
    ZipfianGenerator z(10, 0.0);
    std::map<std::uint64_t, int> hist;
    for (int i = 0; i < 50000; ++i)
        ++hist[z.next()];
    for (const auto &[k, c] : hist)
        EXPECT_NEAR(c, 5000, 600) << "key " << k;
}

TEST(Zipf, LargeKeySpaceConstructionIsUsable)
{
    // 200M keys as in the MICA dataset; approximate zeta path.
    ZipfianGenerator z(200'000'000ull, 0.99);
    for (int i = 0; i < 1000; ++i)
        ASSERT_LT(z.next(), 200'000'000ull);
}

} // namespace
