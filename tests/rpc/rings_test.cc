/**
 * @file
 * Ring tests (Fig. 8 semantics): occupancy counting, release-based
 * reuse, flow blocking, RX overflow drops, reassembly on pop.
 */

#include <gtest/gtest.h>

#include "rpc/rings.hh"

namespace {

using namespace dagger;
using namespace dagger::rpc;

/** Claim into a fresh vector (popFrames() appends to a caller's). */
std::vector<proto::Frame>
claim(TxRing &tx, std::size_t n)
{
    std::vector<proto::Frame> out;
    tx.popFrames(n, out);
    return out;
}

proto::RpcMessage
msg(std::size_t len, proto::RpcId id = 1)
{
    std::string payload(len, 'p');
    return proto::RpcMessage(1, id, 1, proto::MsgType::Request,
                             payload.data(), payload.size());
}

TEST(TxRing, PushPopReleaseCycle)
{
    TxRing tx(4);
    EXPECT_TRUE(tx.push(msg(8)));
    EXPECT_EQ(tx.used(), 1u);
    EXPECT_EQ(tx.pendingFrames(), 1u);
    auto frames = claim(tx, 1);
    EXPECT_EQ(frames.size(), 1u);
    EXPECT_EQ(tx.pendingFrames(), 0u);
    EXPECT_EQ(tx.used(), 1u); // still occupied until bookkeeping
    tx.release(1);
    EXPECT_EQ(tx.used(), 0u);
}

TEST(TxRing, BlocksWhenEntriesNotReleased)
{
    TxRing tx(2);
    EXPECT_TRUE(tx.push(msg(8, 1)));
    EXPECT_TRUE(tx.push(msg(8, 2)));
    EXPECT_FALSE(tx.push(msg(8, 3))); // full: nothing released yet
    EXPECT_EQ(tx.blocked(), 1u);
    claim(tx, 2);
    EXPECT_FALSE(tx.push(msg(8, 3))); // popped but not released
    tx.release(2);
    EXPECT_TRUE(tx.push(msg(8, 3)));
}

TEST(TxRing, MultiFrameMessageCountsAllFrames)
{
    TxRing tx(4);
    EXPECT_TRUE(tx.push(msg(100))); // 3 frames
    EXPECT_EQ(tx.used(), 3u);
    EXPECT_FALSE(tx.push(msg(100))); // needs 3, only 1 left
}

TEST(TxRing, NotifyFiresOnPush)
{
    TxRing tx(4);
    int notified = 0;
    tx.setNotify([&] { ++notified; });
    tx.push(msg(8));
    tx.push(msg(8, 2));
    EXPECT_EQ(notified, 2);
}

TEST(TxRing, SpaceNotifyFiresOnRelease)
{
    TxRing tx(1);
    int space = 0;
    tx.setSpaceNotify([&] { ++space; });
    tx.push(msg(8));
    claim(tx, 1);
    tx.release(1);
    EXPECT_EQ(space, 1);
}

TEST(RxRing, DeliverPopRoundTrip)
{
    RxRing rx(8);
    auto m = msg(40);
    rx.deliver(m.toFrames());
    proto::RpcMessage out;
    ASSERT_TRUE(rx.popMessage(out));
    EXPECT_EQ(out.payload(), m.payload());
    EXPECT_FALSE(rx.popMessage(out));
}

TEST(RxRing, OverflowDrops)
{
    RxRing rx(2);
    auto m = msg(100); // 3 frames
    EXPECT_EQ(rx.deliver(m.toFrames()), 2u);
    EXPECT_EQ(rx.drops(), 1u);
}

TEST(RxRing, PartialMessageWaitsForRemainingFrames)
{
    RxRing rx(8);
    auto m = msg(100);
    auto frames = m.toFrames();
    rx.deliver({frames[0], frames[1]});
    proto::RpcMessage out;
    EXPECT_FALSE(rx.popMessage(out));
    rx.deliver({frames[2]});
    ASSERT_TRUE(rx.popMessage(out));
    EXPECT_EQ(out.payload(), m.payload());
}

TEST(RxRing, NotifyOnDelivery)
{
    RxRing rx(8);
    int notified = 0;
    rx.setNotify([&] { ++notified; });
    rx.deliver(msg(8).toFrames());
    EXPECT_EQ(notified, 1);
}

} // namespace
