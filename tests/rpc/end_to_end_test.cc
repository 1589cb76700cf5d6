/**
 * @file
 * Full-stack integration tests: RPCs flow client software -> TX ring
 * -> NIC RX FSM -> CCI-P -> RPC pipeline -> ToR switch -> server NIC
 * -> RX ring -> dispatch thread -> handler -> response all the way
 * back.  Checks payload integrity, request conservation, latency
 * plausibility, threading models, and multi-frame RPCs.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "rpc/client.hh"
#include "rpc/server.hh"
#include "rpc/system.hh"
#include "rpc/testbed.hh"

namespace {

using namespace dagger;
using namespace dagger::rpc;
using sim::usToTicks;

constexpr proto::FnId kEcho = kEchoFn;
constexpr proto::FnId kUpper = 2;

/** Two client and two server flows echoing on kEcho. */
TestbedConfig
config(ic::IfaceKind iface = ic::IfaceKind::Upi, unsigned soft_batch = 1)
{
    TestbedConfig cfg;
    cfg.iface = iface;
    cfg.clientFlows = 2;
    cfg.serverFlows = 2;
    cfg.soft.batchSize = soft_batch;
    cfg.handler = echoHandler(sim::nsToTicks(50));
    return cfg;
}

TEST(EndToEnd, EchoRoundTripPreservesPayload)
{
    Testbed rig(config());
    std::string got;
    const char payload[] = "hello dagger";
    rig.client().callAsync(kEcho, payload, sizeof(payload),
                           [&](const proto::RpcMessage &resp) {
                               got.assign(reinterpret_cast<const char *>(
                                              resp.payload().data()),
                                          resp.payload().size());
                           });
    rig.system().runFor(usToTicks(100));
    EXPECT_EQ(got, std::string(payload, sizeof(payload)));
    EXPECT_EQ(rig.client().responses(), 1u);
    EXPECT_EQ(rig.server().serverThread(0).processed(), 1u);
}

TEST(EndToEnd, HandlerActuallyTransforms)
{
    Testbed rig(config());
    rig.server().registerHandler(kUpper, [](const proto::RpcMessage &req) {
        HandlerOutcome out;
        // A transforming handler is a genuine copy boundary: pull the
        // bytes out of the immutable buffer, rewrite, rewrap.
        std::vector<std::uint8_t> up(
            req.payload().data(),
            req.payload().data() + req.payload().size());
        for (auto &b : up)
            b = static_cast<std::uint8_t>(std::toupper(static_cast<int>(b)));
        out.response = proto::PayloadBuf(up.data(), up.size());
        out.cost = sim::nsToTicks(120);
        return out;
    });
    std::string got;
    const char payload[] = "abc";
    rig.client().callAsync(kUpper, payload, 3,
                           [&](const proto::RpcMessage &resp) {
                               got.assign(reinterpret_cast<const char *>(
                                              resp.payload().data()),
                                          3);
                           });
    rig.system().runFor(usToTicks(100));
    EXPECT_EQ(got, "ABC");
}

TEST(EndToEnd, RttIsMicrosecondScale)
{
    Testbed rig(config(ic::IfaceKind::Upi, 1));
    std::uint64_t done = 0;
    // Send a few pipelined requests.
    for (int i = 0; i < 8; ++i) {
        std::uint64_t v = i;
        rig.client().callPod(kEcho, v,
                             [&](const proto::RpcMessage &) { ++done; });
    }
    rig.system().runFor(usToTicks(200));
    EXPECT_EQ(done, 8u);
    const auto p50 = rig.client().latency().percentile(50);
    // The paper's B=1 median RTT is 1.8us; accept a broad sanity band.
    EXPECT_GT(p50, usToTicks(0.8));
    EXPECT_LT(p50, usToTicks(6.0));
}

TEST(EndToEnd, ManyRequestsAllComplete)
{
    Testbed rig(config(ic::IfaceKind::Upi, 4));
    std::uint64_t done = 0;
    constexpr int kN = 2000;
    // Pace sends to ~1 Mrps so rings never overflow.
    for (int i = 0; i < kN; ++i) {
        rig.system().eq().scheduleAt(usToTicks(i), [&] {
            std::uint64_t v = 1;
            rig.client().callPod(kEcho, v,
                                 [&](const proto::RpcMessage &) { ++done; });
        });
    }
    rig.system().runFor(usToTicks(kN + 200));
    EXPECT_EQ(done, static_cast<std::uint64_t>(kN));
    EXPECT_EQ(rig.client().sendFailures(), 0u);
    EXPECT_EQ(rig.serverNode().nicDev().monitor().drops(), 0u);
    // Conservation: every request the server NIC saw came from us.
    EXPECT_EQ(rig.serverNode().nicDev().monitor().rpcsIn.value(),
              static_cast<std::uint64_t>(kN));
}

TEST(EndToEnd, MultiFrameRpcRoundTrips)
{
    Testbed rig(config());
    std::string big(500, 'x');
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<char>('a' + i % 26);
    std::string got;
    rig.client().callAsync(kEcho, big.data(), big.size(),
                           [&](const proto::RpcMessage &resp) {
                               got.assign(reinterpret_cast<const char *>(
                                              resp.payload().data()),
                                          resp.payload().size());
                           });
    rig.system().runFor(usToTicks(200));
    EXPECT_EQ(got, big);
}

TEST(EndToEnd, CallWithoutContinuationCompletes)
{
    Testbed rig(config());
    std::uint64_t v = 99;
    rig.client().callPod(kEcho, v);
    rig.system().runFor(usToTicks(100));
    // Counted and timed, then dropped: nothing keeps the response.
    EXPECT_EQ(rig.client().responses(), 1u);
    EXPECT_EQ(rig.client().pendingCalls(), 0u);
    EXPECT_EQ(rig.client().latency().count(), 1u);
    EXPECT_EQ(rig.client().orphanResponses(), 0u);
}

TEST(EndToEnd, WorkerPoolModelStillCorrect)
{
    Testbed rig(config());
    CpuSet workers(rig.system().eq(), 1);
    WorkerPool pool(rig.system(), {&workers.core(0).thread(0),
                                   &workers.core(0).thread(1)});
    rig.server().setWorkerPool(&pool);
    std::uint64_t done = 0;
    for (int i = 0; i < 50; ++i) {
        std::uint64_t v = i;
        rig.client().callPod(kEcho, v,
                             [&](const proto::RpcMessage &) { ++done; });
    }
    rig.system().runFor(usToTicks(500));
    EXPECT_EQ(done, 50u);
    EXPECT_EQ(pool.submitted(), 50u);
}

TEST(EndToEnd, WorkerModelAddsLatency)
{
    auto median_for = [](bool worker) {
        Testbed rig(config());
        CpuSet workers(rig.system().eq(), 1);
        WorkerPool pool(rig.system(), {&workers.core(0).thread(0)});
        if (worker)
            rig.server().setWorkerPool(&pool);
        for (int i = 0; i < 20; ++i) {
            rig.system().eq().scheduleAt(usToTicks(i * 10), [&rig] {
                std::uint64_t v = 1;
                rig.client().callPod(kEcho, v);
            });
        }
        rig.system().runFor(usToTicks(1000));
        return rig.client().latency().percentile(50);
    };
    const auto dispatch_p50 = median_for(false);
    const auto worker_p50 = median_for(true);
    // §5.7: worker threading costs latency (handoff + queueing).
    EXPECT_GT(worker_p50, dispatch_p50 + usToTicks(1.0));
}

TEST(EndToEnd, UnhandledFnIsCountedNotFatal)
{
    Testbed rig(config());
    std::uint64_t v = 0;
    rig.client().callPod(static_cast<proto::FnId>(77), v);
    rig.system().runFor(usToTicks(100));
    EXPECT_EQ(rig.server().serverThread(0).unhandled(), 1u);
    EXPECT_EQ(rig.client().responses(), 0u);
}

TEST(EndToEnd, TwoClientsTwoFlows)
{
    Testbed rig(config());
    std::uint64_t d1 = 0, d2 = 0;
    for (int i = 0; i < 30; ++i) {
        std::uint64_t v = i;
        rig.client(0).callPod(kEcho, v,
                              [&](const proto::RpcMessage &) { ++d1; });
        rig.client(1).callPod(kEcho, v,
                              [&](const proto::RpcMessage &) { ++d2; });
    }
    rig.system().runFor(usToTicks(500));
    EXPECT_EQ(d1, 30u);
    EXPECT_EQ(d2, 30u);
}

TEST(EndToEnd, RoundRobinLbSpreadsAcrossServerFlows)
{
    Testbed rig(config());
    auto conn_rr = rig.system().connect(rig.clientNode(), 0,
                                        rig.serverNode(), 0,
                                        nic::LbScheme::RoundRobin);
    std::uint64_t done = 0;
    for (int i = 0; i < 40; ++i) {
        std::uint64_t v = i;
        rig.client().callAsyncOn(conn_rr, kEcho, &v, sizeof(v),
                                 [&](const proto::RpcMessage &) { ++done; });
    }
    rig.system().runFor(usToTicks(500));
    EXPECT_EQ(done, 40u);
    // Both server threads got work.
    EXPECT_GT(rig.server().serverThread(0).processed(), 0u);
    EXPECT_GT(rig.server().serverThread(1).processed(), 0u);
}

TEST(EndToEnd, AllIfaceKindsDeliver)
{
    for (auto kind : {ic::IfaceKind::MmioWrite, ic::IfaceKind::Doorbell,
                      ic::IfaceKind::DoorbellBatch, ic::IfaceKind::Upi,
                      ic::IfaceKind::Cxl}) {
        Testbed rig(config(kind, 1));
        std::uint64_t done = 0;
        for (int i = 0; i < 10; ++i) {
            std::uint64_t v = i;
            rig.client().callPod(kEcho, v,
                                 [&](const proto::RpcMessage &) { ++done; });
        }
        rig.system().runFor(usToTicks(300));
        EXPECT_EQ(done, 10u) << ic::ifaceName(kind);
    }
}

TEST(EndToEnd, UpiLatencyBeatsDoorbellAndMmio)
{
    auto median_for = [](ic::IfaceKind kind) {
        Testbed rig(config(kind, 1));
        for (int i = 0; i < 20; ++i) {
            rig.system().eq().scheduleAt(usToTicks(i * 5), [&rig] {
                std::uint64_t v = 1;
                rig.client().callPod(kEcho, v);
            });
        }
        rig.system().runFor(usToTicks(500));
        return rig.client().latency().percentile(50);
    };
    const auto upi = median_for(ic::IfaceKind::Upi);
    const auto db = median_for(ic::IfaceKind::Doorbell);
    const auto mmio = median_for(ic::IfaceKind::MmioWrite);
    EXPECT_LT(upi, db);
    EXPECT_LT(upi, mmio);
}

} // namespace
