/**
 * @file
 * DaggerSystem-level tests: connection ids, send-cost model
 * plumbing, SRQ sharing, orphan responses, stats reporting, and the
 * testbed's one-driver rule.
 */

#include <gtest/gtest.h>

#include "rpc/client.hh"
#include "rpc/report.hh"
#include "rpc/server.hh"
#include "rpc/system.hh"
#include "rpc/testbed.hh"

namespace {

using namespace dagger;
using namespace dagger::rpc;
using sim::usToTicks;

/** One client and one server flow, echoing on fn 1. */
TestbedConfig
config()
{
    TestbedConfig cfg;
    cfg.handler = echoHandler(sim::nsToTicks(20));
    return cfg;
}

TEST(DaggerSystem, UnopenedConnectionDropsAtNic)
{
    Testbed rig(config());
    std::uint64_t done = 0;
    std::uint64_t v = 1;
    rig.client().callPod(1, v, [&](const proto::RpcMessage &) { ++done; });
    rig.system().runFor(usToTicks(100));
    ASSERT_EQ(done, 1u);

    // No connection 999 was ever opened: the client NIC finds no tuple
    // for it and drops the request before the wire.
    rig.client().callAsyncOn(999, 1, &v, sizeof(v),
                             [&](const proto::RpcMessage &) { ++done; });
    rig.system().runFor(usToTicks(100));
    EXPECT_EQ(done, 1u); // second call never completed
    EXPECT_EQ(
        rig.clientNode().nicDev().monitor().dropsNoConnection.value(), 1u);
}

TEST(DaggerSystem, ConnectionIdsAreSequentialAndDistinct)
{
    Testbed rig(config());
    auto a = rig.system().connect(rig.clientNode(), 0, rig.serverNode(), 0);
    auto b = rig.system().connect(rig.clientNode(), 0, rig.serverNode(), 0);
    EXPECT_NE(a, b);
    EXPECT_EQ(b, a + 1);
}

TEST(DaggerSystem, SendCpuCostTracksInterfaceAndBatch)
{
    DaggerSystem upi(ic::IfaceKind::Upi);
    nic::SoftConfig b1;
    b1.batchSize = 1;
    nic::SoftConfig b4;
    b4.batchSize = 4;
    auto &n1 = upi.addNode({}, b1);
    auto &n4 = upi.addNode({}, b4);
    EXPECT_GT(upi.sendCpuCost(n1), upi.sendCpuCost(n4));

    DaggerSystem mmio(ic::IfaceKind::MmioWrite);
    auto &nm = mmio.addNode({}, b1);
    EXPECT_GT(mmio.sendCpuCost(nm), upi.sendCpuCost(n1));
}

TEST(DaggerSystem, NodesUseTheSystemInterface)
{
    // A default NicConfig says Upi; the node's NIC must still drive the
    // fabric it is attached to, or its poll-mode management would act
    // on a port of another interface.
    DaggerSystem sys(ic::IfaceKind::DoorbellBatch);
    auto &node = sys.addNode({});
    EXPECT_EQ(node.nicDev().config().iface, ic::IfaceKind::DoorbellBatch);
}

TEST(DaggerSystem, SrqSharedClientChargesLockCost)
{
    // Two logical connections over one client (SRQ): lock cost makes
    // the shared client's per-send CPU strictly larger, observable as
    // lower saturation throughput.
    auto run = [](bool shared) {
        Testbed rig(config());
        rig.client().setConnection(
            rig.system().connect(rig.clientNode(), 0, rig.serverNode(), 0));
        rig.client().setSharedByThreads(shared);
        int done = 0;
        std::function<void()> fire = [&] {
            std::uint64_t v = 1;
            rig.client().callPod(1, v,
                                 [&](const proto::RpcMessage &) {
                                     ++done;
                                     fire();
                                 });
        };
        for (int w = 0; w < 32; ++w)
            fire();
        rig.system().runFor(sim::msToTicks(3));
        return done;
    };
    EXPECT_GT(run(false), run(true));
}

TEST(DaggerSystem, OrphanResponsesCounted)
{
    Testbed rig(config());
    // Two clients alternate on the same flow: the second client's
    // responses arrive at a ring the first client polls -> orphans.
    // Craft an orphan by injecting a response for an unknown rpc id.
    proto::RpcMessage fake(rig.client().connection(), 4242, 1,
                           proto::MsgType::Response, "x", 1);
    rig.clientNode().flow(0).rx.deliver(fake.toFrames());
    rig.system().runFor(usToTicks(50));
    EXPECT_EQ(rig.client().orphanResponses(), 1u);
}

TEST(DaggerSystem, ReportContainsKeyCounters)
{
    Testbed rig(config());
    for (int i = 0; i < 5; ++i) {
        std::uint64_t v = i;
        rig.client().callPod(1, v);
    }
    rig.system().runFor(usToTicks(200));

    const std::string report = reportSystemJson(rig.system());
    EXPECT_NE(report.find("\"tor.forwarded\""), std::string::npos);
    EXPECT_NE(report.find("\"node0.nic.conn_cache.hit_rate\""),
              std::string::npos);
    EXPECT_NE(report.find("\"node1.nic.hcc.hit_rate\""), std::string::npos);
    // The per-NIC rpc counters reflect the five round trips.
    EXPECT_NE(report.find("\"node0.nic.rpcs_out\": 5"), std::string::npos);
}

TEST(TestbedDeath, SecondDriverPanics)
{
    // A driver's arrival chains and client modes outlive its run, so a
    // second driver on the same testbed would measure both.
    Testbed rig(config());
    rig.offer(1.0, usToTicks(10), usToTicks(10));
    EXPECT_DEATH(rig.offer(1.0, usToTicks(10), usToTicks(10)), "one driver");
    EXPECT_DEATH(rig.saturate(1, usToTicks(10), usToTicks(10)), "one driver");
    EXPECT_DEATH(rig.floodPeak(usToTicks(10), usToTicks(10)), "one driver");
}

} // namespace
