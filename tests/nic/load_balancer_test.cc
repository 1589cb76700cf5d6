/**
 * @file
 * Load balancer tests: round-robin uniformity, static steering, and
 * the object-level key-affinity scheme used for MICA (§5.7).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "nic/load_balancer.hh"

namespace {

using namespace dagger;
using namespace dagger::nic;

proto::RpcMessage
msgWithKey(std::uint64_t key)
{
    struct
    {
        std::uint64_t key;
        std::uint32_t extra;
    } payload{key, 7};
    return proto::RpcMessage(1, 1, 0, proto::MsgType::Request, &payload,
                             sizeof(payload));
}

TEST(RoundRobinLb, CyclesThroughFlows)
{
    RoundRobinLb lb;
    EXPECT_EQ(lb.pick(4), 0u);
    EXPECT_EQ(lb.pick(4), 1u);
    EXPECT_EQ(lb.pick(4), 2u);
    EXPECT_EQ(lb.pick(4), 3u);
    EXPECT_EQ(lb.pick(4), 0u);
}

TEST(RoundRobinLb, UniformOverManyRequests)
{
    RoundRobinLb lb;
    std::map<unsigned, int> hist;
    for (int i = 0; i < 400; ++i)
        ++hist[lb.pick(4)];
    for (auto &[f, n] : hist)
        EXPECT_EQ(n, 100) << "flow " << f;
}

TEST(StaticLb, UsesConnectionTuple)
{
    StaticLb lb;
    ConnTuple t;
    t.srcFlow = 3;
    EXPECT_EQ(lb.pick(t, 8), 3u);
    EXPECT_EQ(lb.pick(t, 8), 3u);
    // Clamped into the active-flow range.
    EXPECT_EQ(lb.pick(t, 2), 1u);
}

TEST(ObjectLevelLb, SameKeyAlwaysSameFlow)
{
    ObjectLevelLb lb(0, 8);
    for (std::uint64_t key : {1ull, 42ull, 0xdeadbeefull}) {
        auto m = msgWithKey(key);
        const unsigned first = lb.pick(m, 8);
        for (int i = 0; i < 10; ++i)
            EXPECT_EQ(lb.pick(m, 8), first) << key;
    }
}

TEST(ObjectLevelLb, SpreadsDistinctKeys)
{
    ObjectLevelLb lb(0, 8);
    std::map<unsigned, int> hist;
    for (std::uint64_t key = 0; key < 4000; ++key)
        ++hist[lb.pick(msgWithKey(key), 4)];
    ASSERT_EQ(hist.size(), 4u);
    for (auto &[f, n] : hist)
        EXPECT_NEAR(n, 1000, 150) << "flow " << f;
}

TEST(ObjectLevelLb, ShortPayloadFallsBackToFlowZero)
{
    ObjectLevelLb lb(0, 8);
    std::uint16_t tiny = 7;
    proto::RpcMessage m(1, 1, 0, proto::MsgType::Request, &tiny,
                        sizeof(tiny));
    EXPECT_EQ(lb.pick(m, 8), 0u);
}

} // namespace
