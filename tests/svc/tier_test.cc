/**
 * @file
 * Tier-framework tests: flow provisioning, downstream wiring, worker
 * pools, tracing, chained tiers over virtualized NICs.
 */

#include <gtest/gtest.h>

#include "svc/tier.hh"

namespace {

using namespace dagger;
using namespace dagger::rpc;
using namespace dagger::svc;
using sim::usToTicks;

constexpr proto::FnId kFn = 1;

struct TierRig
{
    TierRig() : cpus(sys.eq(), 6) {}

    DaggerSystem sys;
    CpuSet cpus;
};

TEST(Tier, ProvisionsServerPlusClientFlows)
{
    TierRig rig;
    Tier mid(rig.sys, "mid", rig.cpus.core(0).thread(0), 2);
    EXPECT_EQ(mid.node().numFlows(), 3u); // 1 server + 2 clients
    EXPECT_EQ(mid.name(), "mid");
    EXPECT_EQ(mid.server().size(), 1u);
}

TEST(Tier, ConnectToWiresDownstream)
{
    TierRig rig;
    Tier front(rig.sys, "front", rig.cpus.core(0).thread(0), 1);
    Tier back(rig.sys, "back", rig.cpus.core(1).thread(0), 0);
    back.serverThread().registerHandler(kFn,
                                        echoHandler(sim::nsToTicks(100)));

    auto &client = front.connectTo(back);
    int done = 0;
    std::uint64_t v = 9;
    client.callPod(kFn, v, [&](const proto::RpcMessage &resp) {
        std::uint64_t out = 0;
        ASSERT_TRUE(resp.payloadAs(out));
        EXPECT_EQ(out, 9u);
        ++done;
    });
    rig.sys.eq().runFor(usToTicks(100));
    EXPECT_EQ(done, 1);
}

TEST(TierDeath, RunsOutOfClientFlows)
{
    TierRig rig;
    Tier front(rig.sys, "front", rig.cpus.core(0).thread(0), 1);
    Tier back(rig.sys, "back", rig.cpus.core(1).thread(0), 0);
    front.connectTo(back);
    EXPECT_DEATH(front.connectTo(back), "no free client flows");
}

TEST(Tier, WorkerPoolMovesHandlerOffDispatch)
{
    TierRig rig;
    Tier front(rig.sys, "front", rig.cpus.core(0).thread(0), 1);
    Tier back(rig.sys, "back", rig.cpus.core(1).thread(0), 0);
    back.useWorkerPool({&rig.cpus.core(2).thread(0)});
    ASSERT_NE(back.workerPool(), nullptr);

    back.serverThread().registerHandler(kFn, echoHandler(usToTicks(5)));
    auto &client = front.connectTo(back);
    int done = 0;
    for (int i = 0; i < 10; ++i) {
        std::uint64_t v = i;
        client.callPod(kFn, v, [&](const proto::RpcMessage &) { ++done; });
    }
    rig.sys.eq().runFor(sim::msToTicks(1));
    EXPECT_EQ(done, 10);
    EXPECT_EQ(back.workerPool()->submitted(), 10u);
    // Handler time (5us each) landed on the worker, not the dispatch
    // thread.
    EXPECT_GT(rig.cpus.core(2).thread(0).busyTicks(), usToTicks(45));
    EXPECT_LT(rig.cpus.core(1).thread(0).busyTicks(), usToTicks(20));
}

TEST(Tier, ThreeTierChainOverVirtualizedNics)
{
    TierRig rig;
    Tier a(rig.sys, "a", rig.cpus.core(0).thread(0), 1);
    Tier b(rig.sys, "b", rig.cpus.core(1).thread(0), 1);
    Tier c(rig.sys, "c", rig.cpus.core(2).thread(0), 0);

    c.serverThread().registerHandler(kFn, echoHandler(sim::nsToTicks(50)));

    auto &b_to_c = b.connectTo(c);
    // b: forwards to c, responds when c answers.
    b.serverThread().registerHandler(
        kFn, [&](const proto::RpcMessage &req) {
            HandlerOutcome out;
            out.respond = false;
            out.cost = sim::nsToTicks(80);
            const auto conn = req.connId();
            const auto rpc = req.rpcId();
            const auto fn = req.fnId();
            std::uint64_t fwd = 0;
            req.payloadAs(fwd);
            b_to_c.callPod(kFn, fwd,
                           [&, conn, rpc, fn](const proto::RpcMessage &r) {
                               std::uint64_t val = 0;
                               r.payloadAs(val);
                               const std::uint64_t doubled = val * 2;
                               b.serverThread().respondLater(
                                   conn, rpc, fn, &doubled,
                                   sizeof(doubled));
                           });
            return out;
        });

    auto &a_to_b = a.connectTo(b);
    std::uint64_t answer = 0;
    std::uint64_t v = 21;
    a_to_b.callPod(kFn, v, [&](const proto::RpcMessage &resp) {
        resp.payloadAs(answer);
    });
    rig.sys.eq().runFor(usToTicks(200));
    EXPECT_EQ(answer, 42u);
    // Three NIC instances share the fabric.
    EXPECT_EQ(rig.sys.numNodes(), 3u);
}

TEST(Tier, TracerAggregatesSpans)
{
    Tracer tracer;
    tracer.record("fast", usToTicks(1));
    tracer.record("slow", usToTicks(100));
    tracer.record("slow.wall", usToTicks(500)); // excluded from ranking
    EXPECT_EQ(tracer.bottleneck(), "slow");
    EXPECT_EQ(tracer.span("fast").count(), 1u);
    EXPECT_EQ(tracer.all().size(), 3u);
}

} // namespace
