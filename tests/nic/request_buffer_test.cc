/**
 * @file
 * Request buffer (Fig. 9B) tests: slot recycling, per-flow FIFO order,
 * backpressure when the free-slot FIFO drains.
 */

#include <gtest/gtest.h>

#include "nic/request_buffer.hh"

namespace {

using namespace dagger;
using namespace dagger::nic;

/** Pop into a fresh vector (pop() appends to a caller's vector). */
std::vector<proto::Frame>
popFrames(RequestBuffer &rb, unsigned flow, std::size_t n)
{
    std::vector<proto::Frame> out;
    rb.pop(flow, n, out);
    return out;
}

proto::Frame
frameWithTag(std::uint8_t tag)
{
    proto::Frame f;
    f.header.rpcId = tag;
    f.setPayload(&tag, 1);
    return f;
}

TEST(RequestBuffer, PushPopRoundTrip)
{
    RequestBuffer rb(8, 2);
    ASSERT_TRUE(rb.push(0, frameWithTag(1)).has_value());
    ASSERT_TRUE(rb.push(0, frameWithTag(2)).has_value());
    EXPECT_EQ(rb.flowDepth(0), 2u);
    EXPECT_EQ(rb.freeSlots(), 6u);
    auto out = popFrames(rb, 0, 2);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].payloadByte(0), 1);
    EXPECT_EQ(out[1].payloadByte(0), 2);
    EXPECT_EQ(rb.freeSlots(), 8u);
}

TEST(RequestBuffer, FlowsAreIndependent)
{
    RequestBuffer rb(8, 2);
    rb.push(0, frameWithTag(1));
    rb.push(1, frameWithTag(2));
    EXPECT_EQ(rb.flowDepth(0), 1u);
    EXPECT_EQ(rb.flowDepth(1), 1u);
    auto out = popFrames(rb, 1, 4);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].payloadByte(0), 2);
    EXPECT_EQ(rb.flowDepth(0), 1u);
}

TEST(RequestBuffer, BackpressureWhenFull)
{
    RequestBuffer rb(2, 1);
    EXPECT_TRUE(rb.push(0, frameWithTag(1)).has_value());
    EXPECT_TRUE(rb.push(0, frameWithTag(2)).has_value());
    EXPECT_FALSE(rb.push(0, frameWithTag(3)).has_value());
    EXPECT_EQ(rb.rejections(), 1u);
    popFrames(rb, 0, 1);
    EXPECT_TRUE(rb.push(0, frameWithTag(3)).has_value());
}

TEST(RequestBuffer, SlotsRecycleIndefinitely)
{
    RequestBuffer rb(4, 1);
    for (int round = 0; round < 1000; ++round) {
        ASSERT_TRUE(rb.push(0, frameWithTag(round & 0xff)).has_value());
        auto out = popFrames(rb, 0, 1);
        ASSERT_EQ(out.size(), 1u);
        ASSERT_EQ(out[0].payloadByte(0), round & 0xff);
    }
    EXPECT_EQ(rb.freeSlots(), 4u);
    EXPECT_EQ(rb.pushes(), 1000u);
}

TEST(RequestBuffer, PopMoreThanDepthReturnsWhatExists)
{
    RequestBuffer rb(4, 1);
    rb.push(0, frameWithTag(9));
    auto out = popFrames(rb, 0, 10);
    EXPECT_EQ(out.size(), 1u);
    EXPECT_TRUE(popFrames(rb, 0, 1).empty());
}

TEST(RequestBufferDeath, BadFlowPanics)
{
    RequestBuffer rb(4, 2);
    EXPECT_DEATH(rb.push(5, frameWithTag(0)), "bad flow");
}

} // namespace
