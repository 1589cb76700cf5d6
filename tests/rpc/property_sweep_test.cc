/**
 * @file
 * Parameterized property sweeps over the full stack.
 *
 * Invariants, for every (interface, batch, payload, ring-size) point:
 *  - conservation: every request is completed exactly once, or
 *    accounted as a drop/send-failure somewhere observable;
 *  - integrity: every response carries the request's payload back;
 *  - per-flow FIFO: responses arrive in issue order on a flow;
 *  - ring occupancy returns to zero after drain.
 *
 * The 90-point grid runs through bench::SweepRunner — each point is an
 * isolated DaggerSystem, so the combos execute concurrently and the
 * verdicts come back in input order.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "rpc/testbed.hh"

namespace {

using namespace dagger;
using namespace dagger::rpc;
using sim::usToTicks;

struct SweepParam
{
    ic::IfaceKind iface;
    unsigned batch;
    std::size_t payload;
    std::size_t ring;
};

std::string
sweepName(const SweepParam &p)
{
    std::string name = ic::ifaceName(p.iface);
    name += "_B" + std::to_string(p.batch);
    name += "_P" + std::to_string(p.payload);
    name += "_R" + std::to_string(p.ring);
    return name;
}

/** Everything the invariant checks need from one sweep point. */
struct SweepVerdict
{
    std::string name;
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t send_failures = 0;
    std::uint64_t pending = 0;
    std::uint64_t nic_drops = 0;
    std::uint64_t ring_drops = 0;
    std::uint64_t tx_used_client = 0;
    std::uint64_t tx_used_server = 0;
    bool integrity_ok = true;
    bool fifo_ok = true;
};

SweepVerdict
runSweepPoint(const SweepParam &param)
{
    TestbedConfig cfg;
    cfg.iface = param.iface;
    cfg.txRingEntries = param.ring;
    cfg.rxRingEntries = param.ring;
    cfg.soft.batchSize = param.batch;
    cfg.handler = echoHandler(sim::nsToTicks(25));
    Testbed tb(cfg);
    DaggerSystem &sys = tb.system();
    DaggerNode &cnode = tb.clientNode();
    DaggerNode &snode = tb.serverNode();
    RpcClient &client = tb.client();

    constexpr int kN = 300;
    SweepVerdict v;
    v.name = sweepName(param);
    v.issued = kN;
    int completed = 0;
    std::uint32_t last_seq = 0;

    // Paced sends (500ns apart) so small rings survive every config.
    const std::size_t payload = param.payload;
    for (int i = 0; i < kN; ++i) {
        sys.eq().scheduleAt(sim::nsToTicks(500.0 * i), [&, i] {
            std::vector<std::uint8_t> data(payload);
            for (std::size_t b = 0; b < payload; ++b)
                data[b] = static_cast<std::uint8_t>(i + b);
            client.callAsync(
                kEchoFn, data.data(), data.size(),
                [&, i, data](const proto::RpcMessage &resp) {
                    ++completed;
                    if (resp.payload() != data)
                        v.integrity_ok = false;
                    // Per-flow FIFO: completions in issue order.
                    if (static_cast<std::uint32_t>(i) < last_seq)
                        v.fifo_ok = false;
                    last_seq = static_cast<std::uint32_t>(i);
                });
        });
    }
    sys.eq().runFor(usToTicks(500.0 * kN / 1000.0 + 300));

    v.completed = static_cast<std::uint64_t>(completed);
    v.send_failures = client.sendFailures();
    v.pending = client.pendingCalls();
    v.nic_drops = cnode.nicDev().monitor().drops() +
                  snode.nicDev().monitor().drops();
    v.ring_drops = cnode.flow(0).rx.drops() + snode.flow(0).rx.drops();
    v.tx_used_client = cnode.flow(0).tx.used();
    v.tx_used_server = snode.flow(0).tx.used();
    return v;
}

TEST(StackSweep, ConservationIntegrityFifoAndDrain)
{
    const ic::IfaceKind ifaces[] = {
        ic::IfaceKind::MmioWrite, ic::IfaceKind::Doorbell,
        ic::IfaceKind::DoorbellBatch, ic::IfaceKind::Upi,
        ic::IfaceKind::Cxl};
    const unsigned batches[] = {1, 3, 8};
    const std::size_t payloads[] = {8, 48, 200};
    const std::size_t rings[] = {16, 256};

    std::vector<SweepParam> grid;
    for (auto iface : ifaces)
        for (auto batch : batches)
            for (auto payload : payloads)
                for (auto ring : rings)
                    grid.push_back({iface, batch, payload, ring});

    std::vector<std::function<SweepVerdict()>> scenarios;
    scenarios.reserve(grid.size());
    for (const SweepParam &param : grid)
        scenarios.push_back([param] { return runSweepPoint(param); });
    const std::vector<SweepVerdict> verdicts =
        bench::SweepRunner().run(std::move(scenarios));

    ASSERT_EQ(verdicts.size(), grid.size());
    for (const SweepVerdict &v : verdicts) {
        SCOPED_TRACE(v.name);
        // Conservation: every issued call either completed, failed at
        // send time (ring full), or is still pending because its
        // frames were dropped somewhere observable.
        EXPECT_EQ(v.completed + v.send_failures + v.pending, v.issued)
            << "conservation violated";
        // Lost-in-flight calls must have an observable cause.
        if (v.pending > 0)
            EXPECT_GT(v.nic_drops + v.ring_drops, 0u);
        else
            EXPECT_EQ(v.nic_drops + v.ring_drops, 0u);
        EXPECT_TRUE(v.integrity_ok);
        EXPECT_TRUE(v.fifo_ok);
        // Drain: all ring entries returned.
        EXPECT_EQ(v.tx_used_client, 0u);
        EXPECT_EQ(v.tx_used_server, 0u);
    }
}

/** Latency must be monotonically hurt by the doorbell batch factor. */
class DoorbellBatchLatency : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DoorbellBatchLatency, TimeoutBoundsSingleRequestRtt)
{
    const unsigned batch = GetParam();
    TestbedConfig cfg;
    cfg.iface = ic::IfaceKind::DoorbellBatch;
    cfg.soft.batchSize = batch;
    cfg.handler = echoHandler(0);
    Testbed tb(cfg);
    RpcClient &client = tb.client();

    std::uint64_t v = 1;
    client.callPod(kEchoFn, v);
    tb.system().runFor(usToTicks(100));
    ASSERT_EQ(client.responses(), 1u);
    const auto rtt = client.latency().percentile(50);
    const auto timeout = tb.clientNode().nicDev().softConfig().batchTimeout;
    // A lone request waits at most one batch timeout per crossing,
    // plus the first-touch cold HCC fills.
    EXPECT_LT(rtt, usToTicks(6.0) + 4 * timeout) << "batch=" << batch;
}

INSTANTIATE_TEST_SUITE_P(Batches, DoorbellBatchLatency,
                         ::testing::Values(1u, 2u, 4u, 8u, 11u, 16u));

} // namespace
