/**
 * @file
 * RpcClient call-table tests.  Tracked calls live in a table indexed
 * by rpc id (open addressing, home slot id & (size - 1)); the request
 * waits in its entry, so send, resend and timer events carry only the
 * id.  These tests pin the table's contract: stale ids never match a
 * reused slot, completions may come in any order, the table grows
 * under pending calls, pendingCalls() is exact, and a parked request
 * keeps its payload for a resend.  A long-pending call pushes later
 * ids out of their home slots, which exercises probing and the
 * backward-shift erase.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/fault_injector.hh"
#include "rpc/client.hh"
#include "rpc/server.hh"
#include "rpc/system.hh"
#include "rpc/testbed.hh"

namespace {

using namespace dagger;
using namespace dagger::rpc;
using sim::usToTicks;

constexpr proto::FnId kEcho = kEchoFn;
constexpr proto::FnId kSlowEcho = 2;
constexpr proto::FnId kSink = 3;

TestbedConfig
config(unsigned server_flows, std::size_t tx_ring)
{
    TestbedConfig cfg;
    cfg.serverFlows = server_flows;
    cfg.txRingEntries = tx_ring;
    cfg.handler = echoHandler(sim::nsToTicks(40));
    return cfg;
}

/**
 * One client flow and @p server_flows server flows; every server flow
 * echoes kEcho, echoes kSlowEcho after 20us and swallows kSink.
 */
struct TableRig : Testbed
{
    explicit TableRig(unsigned server_flows = 1,
                      std::size_t tx_ring = TestbedConfig{}.txRingEntries)
        : Testbed(config(server_flows, tx_ring))
    {
        server().registerHandler(kSlowEcho, echoHandler(usToTicks(20)));
        server().registerHandler(kSink, [](const proto::RpcMessage &) {
            HandlerOutcome out;
            out.respond = false;
            return out;
        });
    }

    /** Run until @p done holds (bounded). */
    template <typename Pred>
    void
    runUntil(Pred done)
    {
        for (int i = 0; i < 100000 && !done(); ++i)
            system().runFor(usToTicks(1));
        ASSERT_TRUE(done());
    }
};

std::uint64_t
valueOf(const proto::RpcMessage &m)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(m.payloadAs(v));
    return v;
}

TEST(CallTable, LateResponseForReusedSlotCompletesNothing)
{
    TableRig rig;
    RpcClient &cli = rig.client();
    RetryPolicy policy;
    policy.timeout = usToTicks(100);
    policy.maxRetries = 0;
    cli.setRetryPolicy(policy);
    // Hold the first response to reach the client for 180us: past
    // call 1's timeout, but before the timeout of call 17, which
    // shares call 1's slot in the 16-entry table.
    net::FaultInjector fi(rig.system().eq());
    fi.install(rig.system().tor().attach(rig.clientNode().id()));
    fi.scriptDelay(1, usToTicks(180));

    std::vector<CallStatus> first;
    cli.callPodStatus(kEcho, std::uint64_t{1},
                      [&](CallStatus st, const proto::RpcMessage &) {
                          first.push_back(st);
                      });
    rig.runUntil([&] { return !first.empty(); });
    ASSERT_EQ(first, std::vector<CallStatus>{CallStatus::TimedOut});

    // Calls 2..16 one at a time, so the table stays at 16 entries.
    for (std::uint64_t id = 2; id <= 16; ++id) {
        bool done = false;
        cli.callPodStatus(kEcho, id,
                          [&, id](CallStatus st,
                                  const proto::RpcMessage &resp) {
                              EXPECT_EQ(st, CallStatus::Ok);
                              EXPECT_EQ(valueOf(resp), id);
                              done = true;
                          });
        rig.runUntil([&] { return done; });
    }
    // Call 17 takes call 1's old slot and stays pending: the server
    // stops popping requests.
    rig.server().serverThread(0).pause();
    std::vector<std::uint64_t> got17;
    cli.callPodStatus(kEcho, std::uint64_t{17},
                      [&](CallStatus st, const proto::RpcMessage &resp) {
                          EXPECT_EQ(st, CallStatus::Ok);
                          got17.push_back(valueOf(resp));
                      });
    rig.runUntil([&] { return cli.lateResponses() == 1; });
    // The late response matched nothing: call 17 is still pending.
    EXPECT_TRUE(got17.empty());
    EXPECT_EQ(cli.pendingCalls(), 1u);
    EXPECT_EQ(cli.orphanResponses(), 0u);

    rig.server().serverThread(0).resume();
    rig.runUntil([&] { return !got17.empty(); });
    EXPECT_EQ(got17, std::vector<std::uint64_t>{17});
    EXPECT_EQ(first.size(), 1u);
    EXPECT_EQ(cli.pendingCalls(), 0u);
    EXPECT_EQ(cli.timeouts(), 1u);
    EXPECT_EQ(cli.lateResponses(), 1u);
}

TEST(CallTable, LongPendingCallDisplacesLaterIds)
{
    // Call 1's response is held for 300us while calls 2..61 run, three
    // at a time.  Calls 17-19 and 49-51 find their home slots taken
    // (call 1 sits in slot 1) and probe past them; when the first of
    // each group completes, the erase must shift the others back or
    // they could no longer be found.
    TableRig rig;
    RpcClient &cli = rig.client();
    net::FaultInjector fi(rig.system().eq());
    fi.install(rig.system().tor().attach(rig.clientNode().id()));
    fi.scriptDelay(1, usToTicks(300));

    std::vector<std::uint64_t> got;
    auto record = [&](const proto::RpcMessage &resp) {
        got.push_back(valueOf(resp));
    };
    cli.callPod(kEcho, std::uint64_t{1}, record);
    for (std::uint64_t id = 2; id <= 61; id += 3) {
        for (std::uint64_t k = id; k < id + 3; ++k)
            cli.callPod(kEcho, k, record);
        const std::size_t want = got.size() + 3;
        rig.runUntil([&] { return got.size() == want; });
        EXPECT_EQ(cli.pendingCalls(), 1u);
    }
    rig.runUntil([&] { return got.size() == 61; });
    EXPECT_EQ(got.back(), 1u);
    std::vector<std::uint64_t> sorted = got;
    std::sort(sorted.begin(), sorted.end());
    for (std::uint64_t i = 0; i < sorted.size(); ++i)
        EXPECT_EQ(sorted[i], i + 1);
    EXPECT_EQ(cli.pendingCalls(), 0u);
    EXPECT_EQ(cli.orphanResponses(), 0u);
}

TEST(CallTable, CompletionsArriveOutOfOrder)
{
    // Two connections from the client's one flow: server flow 0 runs
    // the slow handler, server flow 1 the fast one.
    TableRig rig(2);
    RpcClient &cli = rig.client();
    const proto::ConnId slow = cli.connection();
    const proto::ConnId fast = rig.system().connect(
        rig.clientNode(), 0, rig.serverNode(), 1, nic::LbScheme::Static);
    std::vector<std::uint64_t> order;
    for (std::uint64_t v = 1; v <= 8; ++v) {
        const bool is_slow = v % 2 == 1;
        cli.callAsyncOn(is_slow ? slow : fast, is_slow ? kSlowEcho : kEcho,
                        &v, sizeof(v),
                        [&](const proto::RpcMessage &resp) {
                            order.push_back(valueOf(resp));
                        });
    }
    EXPECT_EQ(cli.pendingCalls(), 8u);
    rig.runUntil([&] { return order.size() == 8; });
    // Every fast call overtakes the slow ones issued before it.
    EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 4, 6, 8, 1, 3, 5, 7}));
    EXPECT_EQ(cli.pendingCalls(), 0u);
    EXPECT_EQ(cli.orphanResponses(), 0u);
}

TEST(CallTable, GrowsWhileCallsArePending)
{
    TableRig rig;
    RpcClient &cli = rig.client();
    constexpr std::uint64_t kCalls = 200;
    std::vector<std::uint64_t> seen(kCalls + 1, 0);
    for (std::uint64_t v = 1; v <= kCalls; ++v)
        cli.callPod(kEcho, v, [&, v](const proto::RpcMessage &resp) {
            EXPECT_EQ(valueOf(resp), v);
            ++seen[v];
        });
    EXPECT_EQ(cli.pendingCalls(), kCalls);
    rig.runUntil([&] { return cli.pendingCalls() == 0; });
    for (std::uint64_t v = 1; v <= kCalls; ++v)
        EXPECT_EQ(seen[v], 1u) << "call " << v;
    EXPECT_EQ(cli.responses(), kCalls);
    EXPECT_EQ(cli.orphanResponses(), 0u);
}

TEST(CallTable, PendingCallsStaysExact)
{
    TableRig rig;
    RpcClient &cli = rig.client();
    std::uint64_t issued = 0, completed = 0;
    std::function<void()> issue = [&] {
        const std::uint64_t v = ++issued;
        cli.callPod(kEcho, v, [&](const proto::RpcMessage &) {
            ++completed;
            EXPECT_EQ(cli.pendingCalls(), issued - completed);
            if (issued < 3000)
                issue();
        });
    };
    for (int w = 0; w < 24; ++w)
        issue();
    while (completed < issued) {
        rig.system().runFor(usToTicks(3));
        EXPECT_EQ(cli.pendingCalls(), issued - completed);
    }
    EXPECT_EQ(completed, 3000u);
    EXPECT_EQ(cli.pendingCalls(), 0u);
}

TEST(CallTable, ResendAfterFullRingFirstSendCarriesPayload)
{
    // An 8-entry TX ring that the NIC drains only on its batch
    // timeout: one-way filler occupies every entry, so the tracked
    // call's first push finds the ring full and a re-attempt sends it.
    TableRig rig(1, /*tx_ring=*/8);
    nic::SoftConfig &soft = rig.clientNode().nicDev().softConfig();
    soft.batchSize = 64;
    soft.batchTimeout = usToTicks(35);
    RpcClient &cli = rig.client();
    RetryPolicy policy;
    policy.timeout = usToTicks(20);
    policy.maxRetries = 5;
    cli.setRetryPolicy(policy);

    for (std::uint64_t i = 0; i < 8; ++i)
        cli.callOneWay(kSink, &i, sizeof(i));
    std::vector<std::uint8_t> payload(100); // three frames
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(3 * i + 5);
    std::vector<CallStatus> status;
    bool same = false;
    cli.callAsyncStatus(kEcho, payload.data(), payload.size(),
                        [&](CallStatus st, const proto::RpcMessage &resp) {
                            status.push_back(st);
                            same = resp.payload() == payload;
                        });
    rig.runUntil([&] { return !status.empty(); });
    EXPECT_GE(cli.resendDrops(), 1u);
    EXPECT_EQ(status, std::vector<CallStatus>{CallStatus::Ok});
    EXPECT_TRUE(same);
    EXPECT_EQ(cli.pendingCalls(), 0u);
}

} // namespace
