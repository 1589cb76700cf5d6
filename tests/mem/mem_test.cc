/**
 * @file
 * Tests for the memory models: direct-mapped cache, HCC.
 */

#include <gtest/gtest.h>

#include "mem/direct_mapped_cache.hh"
#include "mem/hcc.hh"

namespace {

using namespace dagger::mem;

TEST(DirectMappedCache, LookupInsertErase)
{
    DirectMappedCache<int> c(16);
    EXPECT_FALSE(c.lookup(5).has_value());
    EXPECT_FALSE(c.insert(5, 42).has_value());
    auto got = c.lookup(5);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 42);
    EXPECT_TRUE(c.erase(5));
    EXPECT_FALSE(c.erase(5));
    EXPECT_FALSE(c.lookup(5).has_value());
}

TEST(DirectMappedCache, ConflictEvicts)
{
    DirectMappedCache<int> c(8);
    c.insert(1, 10);
    auto evicted = c.insert(9, 90); // 1 and 9 share set 1
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->first, 1u);
    EXPECT_EQ(evicted->second, 10);
    EXPECT_EQ(c.evictions(), 1u);
    EXPECT_FALSE(c.lookup(1).has_value());
    EXPECT_TRUE(c.lookup(9).has_value());
}

TEST(DirectMappedCache, ReinsertSameKeyIsNotEviction)
{
    DirectMappedCache<int> c(8);
    c.insert(3, 1);
    EXPECT_FALSE(c.insert(3, 2).has_value());
    EXPECT_EQ(c.evictions(), 0u);
    EXPECT_EQ(*c.peek(3), 2);
}

TEST(DirectMappedCache, HitRateTracksAccesses)
{
    DirectMappedCache<int> c(8);
    c.insert(1, 1);
    c.lookup(1);
    c.lookup(2);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
    EXPECT_DOUBLE_EQ(c.hitRate(), 0.5);
    EXPECT_EQ(c.occupancy(), 1u);
}

TEST(DirectMappedCacheDeath, NonPowerOfTwoRejected)
{
    EXPECT_DEATH(DirectMappedCache<int>(12), "power of two");
}

TEST(Hcc, HasPaperCapacity)
{
    EXPECT_EQ(kHccBytes, 128u * 1024u);
    EXPECT_EQ(kHccLines, 2048u);
}

TEST(Hcc, MissThenHit)
{
    Hcc hcc(dagger::sim::nsToTicks(400));
    EXPECT_EQ(hcc.access(7), dagger::sim::nsToTicks(400));
    EXPECT_EQ(hcc.access(7), 0u);
    EXPECT_EQ(hcc.hits(), 1u);
    EXPECT_EQ(hcc.misses(), 1u);
}

TEST(Hcc, InvalidateForcesRefill)
{
    Hcc hcc;
    hcc.access(3);
    hcc.invalidate(3);
    EXPECT_GT(hcc.access(3), 0u);
}

} // namespace
