/**
 * @file
 * Connection Manager tests: direct-mapped behaviour, the three read
 * ports, DRAM backing and miss penalties (§4.2).
 */

#include <gtest/gtest.h>

#include "nic/connection_manager.hh"

namespace {

using namespace dagger;
using namespace dagger::nic;

NicConfig
smallCfg(bool backing = false)
{
    NicConfig cfg;
    cfg.connCacheEntries = 8;
    cfg.connCacheDramBacking = backing;
    return cfg;
}

TEST(ConnectionManager, OpenLookup)
{
    NicConfig cfg = smallCfg();
    ConnectionManager cm(cfg);
    ConnTuple t{2, 7, LbScheme::Static};
    ASSERT_TRUE(cm.open(5, t));
    auto got = cm.lookup(5, CmReader::OutgoingFlow);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, t);
}

TEST(ConnectionManager, UnknownConnectionMisses)
{
    NicConfig cfg = smallCfg();
    ConnectionManager cm(cfg);
    EXPECT_FALSE(cm.lookup(42, CmReader::IncomingFlow).has_value());
    EXPECT_EQ(cm.misses(), 1u);
    EXPECT_EQ(cm.hits(), 0u);
}

TEST(ConnectionManager, DirectMappedConflictWithoutBackingFails)
{
    NicConfig cfg = smallCfg(false);
    ConnectionManager cm(cfg);
    ASSERT_TRUE(cm.open(1, ConnTuple{0, 1, LbScheme::RoundRobin}));
    // 1 and 9 collide in an 8-entry table.
    EXPECT_FALSE(cm.open(9, ConnTuple{1, 2, LbScheme::RoundRobin}));
    // Original survives.
    EXPECT_TRUE(cm.lookup(1, CmReader::Manager).has_value());
}

TEST(ConnectionManager, DramBackingResolvesConflicts)
{
    NicConfig cfg = smallCfg(true);
    ConnectionManager cm(cfg);
    ASSERT_TRUE(cm.open(1, ConnTuple{0, 1, LbScheme::RoundRobin}));
    ASSERT_TRUE(cm.open(9, ConnTuple{1, 2, LbScheme::RoundRobin}));
    EXPECT_EQ(cm.evictions(), 1u);

    // Conn 1 was evicted to DRAM; lookup refills with a penalty.
    sim::Tick penalty = 0;
    auto got = cm.lookup(1, CmReader::IncomingFlow, penalty);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->destAddr, 1u);
    EXPECT_EQ(penalty, cfg.connMissPenalty);

    // Now conn 9 got displaced; a hit on 1 is free.
    penalty = 0;
    got = cm.lookup(1, CmReader::IncomingFlow, penalty);
    EXPECT_EQ(penalty, 0u);
    EXPECT_TRUE(got.has_value());
}

TEST(ConnectionManager, ReaderPortsAreCounted)
{
    NicConfig cfg = smallCfg();
    ConnectionManager cm(cfg);
    cm.open(3, ConnTuple{});
    cm.lookup(3, CmReader::OutgoingFlow);
    cm.lookup(3, CmReader::IncomingFlow);
    cm.lookup(3, CmReader::IncomingFlow);
    const auto &acc = cm.readerAccesses();
    EXPECT_EQ(acc[static_cast<std::size_t>(CmReader::OutgoingFlow)], 1u);
    EXPECT_EQ(acc[static_cast<std::size_t>(CmReader::IncomingFlow)], 2u);
    EXPECT_EQ(acc[static_cast<std::size_t>(CmReader::Manager)], 1u);
}

TEST(ConnectionManager, ManyConnectionsWithBackingAllReachable)
{
    NicConfig cfg = smallCfg(true);
    ConnectionManager cm(cfg);
    for (proto::ConnId id = 1; id <= 64; ++id)
        ASSERT_TRUE(cm.open(id, ConnTuple{id % 4, 9, LbScheme::Static}));
    EXPECT_EQ(cm.backingConnections(), 64u);
    for (proto::ConnId id = 1; id <= 64; ++id) {
        auto got = cm.lookup(id, CmReader::OutgoingFlow);
        ASSERT_TRUE(got.has_value()) << id;
        EXPECT_EQ(got->srcFlow, id % 4);
    }
}

TEST(ConnectionManagerDeath, NonPowerOfTwoCacheRejected)
{
    NicConfig cfg;
    cfg.connCacheEntries = 12;
    EXPECT_DEATH(ConnectionManager cm(cfg), "power of two");
}

} // namespace
