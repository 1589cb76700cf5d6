/**
 * @file
 * RpcClientPool tests: per-flow client provisioning, concurrent calls
 * from a pool, aggregate statistics (§4.2: "The RpcClientPool
 * encapsulates a pool of RPC clients that concurrently call remote
 * procedures registered in the corresponding RpcThreadedServer").
 */

#include <gtest/gtest.h>

#include "net/fault_injector.hh"
#include "rpc/client.hh"
#include "rpc/server.hh"
#include "rpc/system.hh"
#include "rpc/testbed.hh"

namespace {

using namespace dagger;
using namespace dagger::rpc;
using sim::usToTicks;

constexpr unsigned kFlows = 4;

/** One client and one server thread per flow, echoing on fn 1. */
TestbedConfig
poolConfig()
{
    TestbedConfig cfg;
    cfg.clientFlows = kFlows;
    cfg.serverFlows = kFlows;
    cfg.handler = echoHandler(sim::nsToTicks(40));
    return cfg;
}

TEST(RpcClientPool, ProvisionsOneClientPerFlow)
{
    Testbed rig(poolConfig());
    EXPECT_EQ(rig.clients().size(), kFlows);
    for (unsigned f = 0; f < kFlows; ++f)
        EXPECT_EQ(rig.clients().client(f).flow(), f);
    EXPECT_EQ(&rig.clients().node(), &rig.clientNode());
}

TEST(RpcClientPool, ConcurrentCallsAcrossFlowsAllComplete)
{
    Testbed rig(poolConfig());
    std::uint64_t done = 0;
    for (int i = 0; i < 40; ++i) {
        std::uint64_t v = i;
        rig.clients().client(i % kFlows)
            .callPod(1, v, [&](const proto::RpcMessage &) { ++done; });
    }
    rig.system().runFor(usToTicks(300));
    EXPECT_EQ(done, 40u);
    for (unsigned f = 0; f < kFlows; ++f)
        EXPECT_EQ(rig.client(f).responses(), 10u);
    // Every server thread served its static flow.
    for (unsigned f = 0; f < kFlows; ++f)
        EXPECT_EQ(rig.server().serverThread(f).processed(), 10u);
}

TEST(RpcClientPool, AggregateLatencyMergesAllClients)
{
    Testbed rig(poolConfig());
    for (int i = 0; i < 20; ++i) {
        std::uint64_t v = i;
        rig.clients().client(i % kFlows).callPod(1, v);
    }
    rig.system().runFor(usToTicks(300));
    sim::Histogram agg = rig.clients().aggregateLatency();
    EXPECT_EQ(agg.count(), 20u);
    std::uint64_t sum = 0;
    for (unsigned f = 0; f < kFlows; ++f)
        sum += rig.clients().client(f).latency().count();
    EXPECT_EQ(sum, 20u);
    // Aggregate median is a plausible RTT.
    EXPECT_GT(agg.percentile(50), usToTicks(1.0));
    EXPECT_LT(agg.percentile(50), usToTicks(10.0));
}

TEST(RpcClientPool, FlowsAreIndependentUnderImbalance)
{
    Testbed rig(poolConfig());
    // Flood flow 0 only; flow 3 stays fast.
    std::uint64_t done0 = 0, done3 = 0;
    for (int i = 0; i < 200; ++i) {
        std::uint64_t v = i;
        rig.clients().client(0).callPod(
            1, v, [&](const proto::RpcMessage &) { ++done0; });
    }
    std::uint64_t v3 = 7;
    rig.clients().client(3).callPod(
        1, v3, [&](const proto::RpcMessage &) { ++done3; });
    rig.system().runFor(usToTicks(100));
    EXPECT_EQ(done3, 1u); // not stuck behind flow 0's backlog
    rig.system().runFor(usToTicks(500));
    EXPECT_EQ(done0, 200u);
}

// Regression: setBestEffort(true) must not wedge response processing
// for good.  The pre-fix toggle cleared the rx notify hook but never
// reinstalled it (and could leave _rxScheduled latched), so after
// switching best-effort back off no response was ever processed again.
TEST(RpcClient, BestEffortToggleRestoresResponseProcessing)
{
    Testbed rig(poolConfig());
    RpcClient &cli = rig.clients().client(0);

    cli.setBestEffort(true);
    for (int i = 0; i < 5; ++i) {
        std::uint64_t v = i;
        cli.callPod(1, v); // fire-and-forget; responses pile up
    }
    rig.system().runFor(usToTicks(100));
    EXPECT_EQ(cli.responses(), 0u); // nothing tracked, nothing drained

    cli.setBestEffort(false);
    rig.system().runFor(usToTicks(100));
    // The piled-up best-effort responses drained (as orphans: they
    // were never tracked)...
    EXPECT_EQ(cli.orphanResponses(), 5u);

    // ...and, critically, a new tracked call completes.
    std::uint64_t done = 0;
    std::uint64_t v = 77;
    cli.callPod(1, v, [&](const proto::RpcMessage &resp) {
        std::uint64_t out = 0;
        ASSERT_TRUE(resp.payloadAs(out));
        EXPECT_EQ(out, 77u);
        ++done;
    });
    rig.system().runFor(usToTicks(100));
    EXPECT_EQ(done, 1u);
    EXPECT_EQ(cli.responses(), 1u);
}

TEST(RpcClient, RetryResendsLostRequestAndCompletesOk)
{
    Testbed rig(poolConfig());
    net::FaultInjector fi(rig.system().eq());
    fi.install(rig.system().tor().attach(rig.serverNode().id()));
    fi.scriptDrop(1); // lose the first copy of the request

    RpcClient &cli = rig.clients().client(0);
    rpc::RetryPolicy policy;
    policy.timeout = usToTicks(30);
    policy.maxRetries = 3;
    cli.setRetryPolicy(policy);

    std::uint64_t ok = 0;
    std::uint64_t v = 21;
    cli.callPodStatus(1, v,
                      [&](CallStatus st, const proto::RpcMessage &resp) {
                          EXPECT_EQ(st, CallStatus::Ok);
                          std::uint64_t out = 0;
                          ASSERT_TRUE(resp.payloadAs(out));
                          EXPECT_EQ(out, 21u);
                          ++ok;
                      });
    rig.system().runFor(usToTicks(300));

    EXPECT_EQ(ok, 1u);
    EXPECT_EQ(cli.retriesSent(), 1u);
    EXPECT_EQ(cli.timeouts(), 0u);
    EXPECT_EQ(cli.pendingCalls(), 0u);
    // The system-wide reliability counters saw the retry + completion.
    const std::string json = rig.system().metrics().renderJson();
    EXPECT_NE(json.find("\"rpc.reliability.retries\": 1"),
              std::string::npos);
    EXPECT_NE(json.find("\"rpc.reliability.timeouts\": 0"),
              std::string::npos);
}

TEST(RpcClient, RetryBudgetExhaustionSurfacesTimedOut)
{
    Testbed rig(poolConfig());
    net::FaultSpec spec;
    spec.dropP = 1.0; // a dead link: nothing reaches the server
    net::FaultInjector fi(rig.system().eq(), spec);
    fi.install(rig.system().tor().attach(rig.serverNode().id()));

    RpcClient &cli = rig.clients().client(0);
    rpc::RetryPolicy policy;
    policy.timeout = usToTicks(20);
    policy.maxRetries = 2;
    cli.setRetryPolicy(policy);

    std::uint64_t timed_out = 0;
    std::uint64_t v = 3;
    cli.callPodStatus(1, v,
                      [&](CallStatus st, const proto::RpcMessage &resp) {
                          EXPECT_EQ(st, CallStatus::TimedOut);
                          EXPECT_EQ(resp.payloadLen(), 0u); // empty
                          ++timed_out;
                      });
    rig.system().runFor(usToTicks(500));

    EXPECT_EQ(timed_out, 1u); // fired exactly once, not per retry
    EXPECT_EQ(cli.timeouts(), 1u);
    EXPECT_EQ(cli.retriesSent(), 2u);
    EXPECT_EQ(cli.pendingCalls(), 0u); // reclaimed, no silent orphan
}

TEST(RpcClient, LateResponseAfterTimeoutIsAccountedNotOrphaned)
{
    Testbed rig(poolConfig());
    net::FaultInjector fi(rig.system().eq());
    fi.install(rig.system().tor().attach(rig.clientNode().id()));
    fi.scriptDelay(1, usToTicks(100)); // hold the response way too long

    RpcClient &cli = rig.clients().client(0);
    rpc::RetryPolicy policy;
    policy.timeout = usToTicks(20);
    policy.maxRetries = 0; // no resends: time out on first expiry
    cli.setRetryPolicy(policy);

    std::uint64_t timed_out = 0;
    std::uint64_t v = 9;
    cli.callPodStatus(1, v,
                      [&](CallStatus st, const proto::RpcMessage &) {
                          if (st == CallStatus::TimedOut)
                              ++timed_out;
                      });
    rig.system().runFor(usToTicks(500));

    EXPECT_EQ(timed_out, 1u);
    // The response eventually arrived — after the call completed as
    // timed out.  It is accounted as late, never as an unknown orphan,
    // and the continuation did not fire a second time.
    EXPECT_EQ(cli.lateResponses(), 1u);
    EXPECT_EQ(cli.orphanResponses(), 0u);
}

TEST(RpcClient, ExponentialBackoffStretchesRetryGaps)
{
    Testbed rig(poolConfig());
    net::FaultSpec spec;
    spec.dropP = 1.0;
    net::FaultInjector fi(rig.system().eq(), spec);
    fi.install(rig.system().tor().attach(rig.serverNode().id()));

    RpcClient &cli = rig.clients().client(0);
    rpc::RetryPolicy policy;
    policy.timeout = usToTicks(10);
    policy.maxRetries = 3;
    policy.backoff = 2.0;
    policy.maxTimeout = usToTicks(25); // cap bites on the last gap
    cli.setRetryPolicy(policy);

    sim::Tick finished = 0;
    std::uint64_t v = 1;
    cli.callPodStatus(1, v,
                      [&](CallStatus, const proto::RpcMessage &) {
                          finished = rig.system().eq().now();
                      });
    rig.system().runFor(usToTicks(500));

    // Gaps: 10, 20, 25 (capped from 40), 25 (capped from 80) -> 80us,
    // measured from when the first copy reached the TX ring (the
    // timeout clock starts at sentAt, not at issue time), so the total
    // is 80us plus the sub-microsecond first-send CPU cost.
    EXPECT_GT(finished, usToTicks(80));
    EXPECT_LT(finished, usToTicks(81));
    EXPECT_EQ(cli.retriesSent(), 3u);
    EXPECT_EQ(cli.timeouts(), 1u);
}

} // namespace
