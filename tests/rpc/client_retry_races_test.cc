/**
 * @file
 * Regression tests for the two retry-timer races fixed in
 * RpcClient:
 *
 *  1. issueCall used to arm the retry timer at issue time, before the
 *     send lambda had executed — under CPU backlog the timer fired
 *     (and retransmitted) before the first copy ever reached the TX
 *     ring.  The timer now arms from inside the send lambda at
 *     sentAt, and the would-have-fired cases are accounted as
 *     rpc.reliability.spurious_arms.
 *
 *  2. onCallTimeout's resend path used to silently strand the call
 *     when tx.push failed: _sendFailures ticked but the pending entry
 *     sat out a full backoff with nothing in flight.  Resend drops
 *     now arm a short re-attempt timer and count
 *     rpc.reliability.resend_drops.
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

TestbedConfig
config(std::size_t tx_ring)
{
    TestbedConfig cfg;
    cfg.txRingEntries = tx_ring;
    cfg.handler = echoHandler(sim::nsToTicks(40));
    return cfg;
}

/**
 * One client flow over @p tx_ring-entry TX rings; fn 1 echoes, fn 2
 * swallows one-way filler traffic.
 */
struct RaceRig : Testbed
{
    explicit RaceRig(std::size_t tx_ring = TestbedConfig{}.txRingEntries)
        : Testbed(config(tx_ring))
    {
        server().registerHandler(2, [](const proto::RpcMessage &) {
            HandlerOutcome out;
            out.respond = false;
            out.cost = sim::nsToTicks(10);
            return out;
        });
    }
};

TEST(RetryRaces, SaturatedThreadDoesNotFireSpuriousRetransmit)
{
    RaceRig rig;
    RpcClient &cli = rig.client();
    rpc::RetryPolicy policy;
    policy.timeout = usToTicks(20);
    policy.maxRetries = 3;
    cli.setRetryPolicy(policy);

    // Saturate the client's hardware thread: the send lambda queues
    // behind 100us of CPU work, five times the retry timeout.
    cli.thread().execute(usToTicks(100), [] {});

    std::uint64_t ok = 0;
    std::uint64_t v = 7;
    cli.callPodStatus(1, v,
                      [&](CallStatus st, const proto::RpcMessage &resp) {
                          EXPECT_EQ(st, CallStatus::Ok);
                          std::uint64_t out = 0;
                          ASSERT_TRUE(resp.payloadAs(out));
                          EXPECT_EQ(out, 7u);
                          ++ok;
                      });
    rig.system().runFor(usToTicks(500));

    // The call completes exactly once, with no retransmit: the timer
    // armed at sentAt (after the backlog drained), not at issue time.
    EXPECT_EQ(ok, 1u);
    EXPECT_EQ(cli.retriesSent(), 0u);
    EXPECT_EQ(cli.timeouts(), 0u);
    EXPECT_EQ(cli.pendingCalls(), 0u);
    // The would-have-been-spurious arming is accounted distinctly.
    EXPECT_EQ(cli.spuriousArms(), 1u);
    const std::string json = rig.system().metrics().renderJson();
    EXPECT_NE(json.find("\"rpc.reliability.spurious_arms\": 1"),
              std::string::npos);
    EXPECT_NE(json.find("\"rpc.reliability.retries\": 0"),
              std::string::npos);
}

TEST(RetryRaces, FastSendDoesNotCountSpuriousArm)
{
    RaceRig rig;
    RpcClient &cli = rig.client();
    rpc::RetryPolicy policy;
    policy.timeout = usToTicks(20);
    cli.setRetryPolicy(policy);

    std::uint64_t ok = 0;
    std::uint64_t v = 9;
    cli.callPodStatus(1, v,
                      [&](CallStatus, const proto::RpcMessage &) { ++ok; });
    rig.system().runFor(usToTicks(200));

    EXPECT_EQ(ok, 1u);
    EXPECT_EQ(cli.spuriousArms(), 0u);
}

TEST(RetryRaces, RingFullResendReattemptsAndDeliversExactlyOnce)
{
    // Tiny TX ring that drains slowly: a large batch with a long
    // batch timeout keeps pushed frames parked in the ring, so the
    // timeout-path resend meets a full ring deterministically.
    RaceRig rig(/*tx_ring=*/4);
    nic::SoftConfig &soft = rig.clientNode().nicDev().softConfig();
    soft.batchSize = 64;
    soft.batchTimeout = usToTicks(35);

    // Lose the first copy of the tracked request so its retry timer
    // fires while the ring is still full of one-way traffic.
    net::FaultInjector fi(rig.system().eq());
    fi.install(rig.system().tor().attach(rig.serverNode().id()));
    fi.scriptDrop(1);

    RpcClient &cli = rig.client();
    rpc::RetryPolicy policy;
    policy.timeout = usToTicks(20);
    policy.maxRetries = 5;
    policy.maxTimeout = usToTicks(40);
    cli.setRetryPolicy(policy);

    std::uint64_t ok = 0;
    std::uint64_t v = 13;
    cli.callPodStatus(1, v,
                      [&](CallStatus st, const proto::RpcMessage &resp) {
                          EXPECT_EQ(st, CallStatus::Ok);
                          std::uint64_t out = 0;
                          ASSERT_TRUE(resp.payloadAs(out));
                          EXPECT_EQ(out, 13u);
                          ++ok;
                      });
    // Fill the remaining ring entries with one-way traffic that the
    // batching NIC will not fetch until its batch timeout expires.
    for (int i = 0; i < 3; ++i) {
        std::uint64_t w = 100 + i;
        cli.callOneWay(2, &w, sizeof(w));
    }
    rig.system().runFor(usToTicks(1000));

    // Eventual delivery, exactly-once completion: the resend that met
    // the full ring re-attempted on the short timer instead of
    // stranding the call for a full backoff.
    EXPECT_EQ(ok, 1u);
    EXPECT_EQ(cli.pendingCalls(), 0u);
    EXPECT_EQ(cli.timeouts(), 0u);
    EXPECT_EQ(cli.orphanResponses(), 0u);
    EXPECT_GE(cli.resendDrops(), 1u);
    const std::string json = rig.system().metrics().renderJson();
    EXPECT_EQ(json.find("\"rpc.reliability.resend_drops\": 0"),
              std::string::npos);
}

} // namespace
