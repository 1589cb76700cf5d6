/**
 * @file
 * Payload size limit regression (proto::kMaxPayloadBytes): oversize
 * payloads are a *recoverable* client-path error — CallStatus::Rejected
 * through the status callback, a sendFailures() tick for the rest —
 * never an assert.  The boundary value itself (65535 B, 1366 frames)
 * must travel end to end.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench/harness.hh"
#include "proto/payload.hh"
#include "rpc/client.hh"

namespace {

using namespace dagger;

rpc::TestbedConfig
bigRingConfig()
{
    rpc::TestbedConfig cfg = bench::echoTestbed();
    // A kMaxPayloadBytes message spans 1366 frames; give the rings
    // room so the boundary case exercises the wire, not ring backpressure.
    cfg.txRingEntries = 4096;
    cfg.rxRingEntries = 4096;
    return cfg;
}

TEST(PayloadLimits, OversizeCallIsRejectedRecoverably)
{
    rpc::Testbed rig(bigRingConfig());
    rpc::RpcClient &cli = rig.client(0);
    std::vector<std::uint8_t> data(proto::kMaxPayloadBytes + 1, 0x7e);

    rpc::CallStatus status = rpc::CallStatus::Ok;
    bool fired = false;
    cli.callAsyncStatus(2, data.data(), data.size(),
                        [&](rpc::CallStatus s, const proto::RpcMessage &m) {
                            fired = true;
                            status = s;
                            EXPECT_TRUE(m.payload().empty());
                        });
    // The rejection is synchronous: refused before any simulated work,
    // no rpc id consumed, no pending entry left behind.
    EXPECT_TRUE(fired);
    EXPECT_EQ(status, rpc::CallStatus::Rejected);
    EXPECT_EQ(cli.sendFailures(), 1u);
    EXPECT_EQ(cli.pendingCalls(), 0u);

    // The client remains fully usable: a normal echo completes.
    std::vector<std::uint8_t> ok(64, 0x11);
    bool completed = false;
    cli.callAsync(1, ok.data(), ok.size(),
                  [&](const proto::RpcMessage &resp) {
                      completed = true;
                      EXPECT_TRUE(resp.payload() == ok);
                  });
    rig.system().runFor(sim::msToTicks(2));
    EXPECT_TRUE(completed);
}

TEST(PayloadLimits, OversizeOneWayCountsSendFailure)
{
    rpc::Testbed rig(bigRingConfig());
    rpc::RpcClient &cli = rig.client(0);
    std::vector<std::uint8_t> data(proto::kMaxPayloadBytes + 1, 0x7e);
    cli.callOneWay(3, data.data(), data.size());
    EXPECT_EQ(cli.sendFailures(), 1u);
    EXPECT_EQ(cli.sent(), 0u);
    rig.system().runFor(sim::msToTicks(1)); // nothing scheduled explodes
}

TEST(PayloadLimits, BoundaryPayloadTravelsEndToEnd)
{
    rpc::Testbed rig(bigRingConfig());
    rpc::RpcClient &cli = rig.client(0);
    std::vector<std::uint8_t> data(proto::kMaxPayloadBytes);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 13 + 1);

    bool completed = false;
    cli.callAsync(1, data.data(), data.size(),
                  [&](const proto::RpcMessage &resp) {
                      completed = true;
                      EXPECT_TRUE(resp.payload() == data);
                  });
    rig.system().runFor(sim::msToTicks(20));
    EXPECT_TRUE(completed);
    EXPECT_EQ(cli.sendFailures(), 0u);
}

} // namespace
