/**
 * @file
 * NIC-level integration tests: batch formation, timeout flushes,
 * poll-mode switching, bookkeeping-driven ring reuse, and the
 * virtualized multi-NIC arbiter (Fig. 14).
 */

#include <gtest/gtest.h>

#include "rpc/client.hh"
#include "rpc/server.hh"
#include "rpc/system.hh"
#include "rpc/testbed.hh"

namespace {

using namespace dagger;
using namespace dagger::rpc;
using sim::usToTicks;

TestbedConfig
config(unsigned batch, bool auto_batch)
{
    TestbedConfig cfg;
    cfg.soft.batchSize = batch;
    cfg.soft.autoBatch = auto_batch;
    cfg.handler = echoHandler(sim::nsToTicks(20));
    return cfg;
}

struct NicRig : Testbed
{
    explicit NicRig(unsigned batch, bool auto_batch = false)
        : Testbed(config(batch, auto_batch))
    {}

    void
    sendBurst(int n)
    {
        for (int i = 0; i < n; ++i) {
            std::uint64_t v = i;
            client().callPod(kEchoFn, v);
        }
    }
};

TEST(NicBatching, BurstsFormFullBatches)
{
    NicRig rig(4);
    rig.sendBurst(16); // enough for 4 full batches
    rig.system().runFor(usToTicks(200));
    const auto &mon = rig.clientNode().nicDev().monitor();
    EXPECT_EQ(mon.framesFetched.value(), 16u);
    // Full batches form (the pipeline's drain tail may flush a few
    // partial ones on timeout, but never more than one per stage).
    EXPECT_EQ(mon.fetchBatch.max(), 4u);
    EXPECT_GE(mon.fetchBatch.percentile(90), 4u);
    EXPECT_LT(mon.timeoutFlushes.value(), 10u);
}

TEST(NicBatching, PartialBatchFlushesOnTimeout)
{
    NicRig rig(4);
    rig.sendBurst(3); // never fills a batch of 4
    rig.system().runFor(usToTicks(200));
    const auto &mon = rig.clientNode().nicDev().monitor();
    EXPECT_EQ(mon.framesFetched.value(), 3u);
    EXPECT_GE(mon.timeoutFlushes.value(), 1u);
    EXPECT_EQ(rig.client().responses(), 3u); // still delivered
}

TEST(NicBatching, TimeoutBoundsBatchLatency)
{
    NicRig rig(8);
    std::uint64_t v = 1;
    rig.client().callPod(1, v);
    rig.system().runFor(usToTicks(100));
    EXPECT_EQ(rig.client().responses(), 1u);
    // One lonely request: RTT = base + up to 2 batch timeouts (the
    // request and the response each wait once) + the cold HCC fills
    // of a first-touch connection, but no more.
    const auto rtt = rig.client().latency().percentile(50);
    const auto timeout =
        rig.clientNode().nicDev().softConfig().batchTimeout;
    EXPECT_LT(rtt, usToTicks(4.5) + 4 * timeout);
}

TEST(NicBatching, AutoBatchSkipsTimeouts)
{
    NicRig rig(4, /*auto_batch=*/true);
    rig.sendBurst(3);
    rig.system().runFor(usToTicks(100));
    const auto &mon = rig.clientNode().nicDev().monitor();
    EXPECT_EQ(mon.timeoutFlushes.value(), 0u);
    EXPECT_EQ(rig.client().responses(), 3u);
}

TEST(NicRings, BookkeepingReleasesTxEntries)
{
    NicRig rig(1);
    rig.sendBurst(5);
    auto &tx = rig.clientNode().flow(0).tx;
    rig.system().runFor(usToTicks(100));
    // After the run everything was fetched and released.
    EXPECT_EQ(tx.used(), 0u);
    EXPECT_EQ(tx.pendingFrames(), 0u);
    EXPECT_EQ(tx.pushedFrames(), 5u);
    EXPECT_EQ(tx.poppedFrames(), 5u);
}

TEST(NicPolling, SwitchesToLlcUnderLoad)
{
    NicRig rig(4);
    auto &port = rig.clientNode().nicDev().cciPort();
    EXPECT_EQ(port.pollMode(), ic::PollMode::LocalCache);
    // Drive a sustained ~6 Mrps burst (above the 4 Mrps threshold).
    for (int i = 0; i < 300; ++i) {
        rig.system().eq().scheduleAt(sim::nsToTicks(160.0 * i), [&rig, i] {
            std::uint64_t v = i;
            rig.client().callPod(1, v);
        });
    }
    rig.system().runFor(usToTicks(60));
    EXPECT_EQ(port.pollMode(), ic::PollMode::Llc);
}

TEST(NicPolling, StaysLocalAtLightLoad)
{
    NicRig rig(4);
    for (int i = 0; i < 20; ++i) {
        rig.system().eq().scheduleAt(usToTicks(10.0 * i), [&rig, i] {
            std::uint64_t v = i;
            rig.client().callPod(1, v);
        });
    }
    rig.system().runFor(usToTicks(400));
    EXPECT_EQ(rig.clientNode().nicDev().cciPort().pollMode(),
              ic::PollMode::LocalCache);
}

TEST(NicVirtualization, TenantsIsolatedAndFair)
{
    DaggerSystem sys(ic::IfaceKind::Upi);
    CpuSet cpus(sys.eq(), 4);
    nic::NicConfig cfg;
    cfg.numFlows = 1;
    nic::SoftConfig soft;
    soft.batchSize = 2;

    // Two tenants, each a client/server NIC pair on the same fabric.
    struct Tenant
    {
        DaggerNode *c;
        DaggerNode *s;
        std::unique_ptr<RpcClient> client;
        std::unique_ptr<RpcThreadedServer> server;
    } t[2];
    for (int i = 0; i < 2; ++i) {
        t[i].c = &sys.addNode(cfg, soft);
        t[i].s = &sys.addNode(cfg, soft);
        t[i].client = std::make_unique<RpcClient>(
            *t[i].c, 0, cpus.core(2 * i).thread(0));
        t[i].client->setConnection(
            sys.connect(*t[i].c, 0, *t[i].s, 0, nic::LbScheme::Static));
        t[i].server = std::make_unique<RpcThreadedServer>(*t[i].s);
        t[i].server->addThread(0, cpus.core(2 * i + 1).thread(0));
        t[i].server->registerHandler(1, echoHandler(0));
    }
    for (int n = 0; n < 100; ++n) {
        for (int i = 0; i < 2; ++i) {
            std::uint64_t v = n;
            t[i].client->callPod(1, v);
        }
    }
    sys.eq().runFor(usToTicks(500));
    EXPECT_EQ(t[0].client->responses(), 100u);
    EXPECT_EQ(t[1].client->responses(), 100u);
    // Tenant 0's RPCs never show up on tenant 1's NICs.
    EXPECT_EQ(t[1].s->nicDev().monitor().rpcsIn.value(), 100u);
    EXPECT_EQ(t[0].s->nicDev().monitor().rpcsIn.value(), 100u);
    EXPECT_EQ(t[0].s->nicDev().monitor().dropsNoConnection.value(), 0u);
}

TEST(NicMonitor, CountsBytesAndRpcs)
{
    NicRig rig(1);
    rig.sendBurst(4);
    rig.system().runFor(usToTicks(100));
    const auto &mon = rig.clientNode().nicDev().monitor();
    EXPECT_EQ(mon.rpcsOut.value(), 4u);
    EXPECT_EQ(mon.rpcsIn.value(), 4u); // responses
    EXPECT_EQ(mon.bytesOut.value(), 4 * 64u);
    EXPECT_EQ(mon.drops(), 0u);
}

} // namespace
