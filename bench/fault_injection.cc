/**
 * @file
 * Failure injection: RPC completion and tail latency under seeded
 * packet loss (extension bench).
 *
 * The paper's testbed assumes a lossless rack-scale fabric and leaves
 * reliable transports as future work for the Protocol block (§4.5).
 * This bench sweeps a per-packet drop probability across both
 * directions of a two-node fabric with the AckProtocol reliability
 * layer installed on each NIC (fragmenting at a 2-frame MTU so
 * multi-frame RPCs exercise reassembly) and a client-side retry
 * policy armed above it.  At every loss point each RPC must complete
 * exactly once — recovered by transport retransmission when the
 * outage is short, by a client retry when it is not.  A final
 * scenario scripts a 150us link flap, long enough to exhaust the
 * transport's retransmit budget, so only the client-level retry can
 * ride it out.
 *
 * All loss decisions come from per-scenario seeded sim::Rng streams:
 * the same seed gives byte-identical JSON (the CI fault-smoke job
 * diffs two runs).
 */

#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench/harness.hh"
#include "net/fault_injector.hh"
#include "nic/ack_protocol.hh"

namespace {

using namespace dagger;
using namespace dagger::bench;
using sim::usToTicks;

constexpr unsigned kCalls = 400;
constexpr std::size_t kPayload = 160; // 4 frames -> 2 wire fragments
constexpr sim::Tick kAckTimeout = usToTicks(20);
constexpr unsigned kAckRetries = 6;
constexpr std::size_t kMtuFrames = 2;

struct Scenario
{
    const char *name;
    double dropP;
    bool flap;
    std::uint64_t seed;
};

constexpr Scenario kScenarios[] = {
    {"loss-0%", 0.000, false, 0x5eed00},
    {"loss-0.2%", 0.002, false, 0x5eed01},
    {"loss-1%", 0.010, false, 0x5eed02},
    {"loss-2%", 0.020, false, 0x5eed03},
    {"loss-5%", 0.050, false, 0x5eed04},
    {"flap-150us", 0.000, true, 0x5eed05},
};

struct LossPoint
{
    double ok = 0;            ///< calls completed CallStatus::Ok
    double timed_out = 0;     ///< calls surfaced as TimedOut
    double client_retries = 0;
    double late_responses = 0;
    double orphans = 0;
    double retransmits = 0;   ///< transport-level, both sides
    double dup_suppressed = 0;
    double transport_lost = 0;
    double wire_dropped = 0;  ///< injector drops, both directions
    double p50_us = 0;
    double p99_us = 0;
};

LossPoint
runScenario(const Scenario &sc)
{
    rpc::TestbedConfig cfg;
    cfg.soft.autoBatch = true;
    cfg.handler = rpc::echoHandler(sim::nsToTicks(40));
    rpc::Testbed tb(cfg);
    rpc::DaggerSystem &sys = tb.system();

    auto cp = std::make_unique<nic::AckProtocol>(kAckTimeout, kAckRetries,
                                                 kMtuFrames);
    auto sp = std::make_unique<nic::AckProtocol>(kAckTimeout, kAckRetries,
                                                 kMtuFrames);
    nic::AckProtocol &cack = *cp;
    nic::AckProtocol &sack = *sp;
    tb.clientNode().nicDev().setProtocol(std::move(cp));
    tb.serverNode().nicDev().setProtocol(std::move(sp));

    // Independent fault streams per direction; a scripted flap blacks
    // out the request direction (covering it is the retry layer's job).
    net::FaultSpec toServer;
    toServer.dropP = sc.dropP;
    toServer.seed = sc.seed * 2 + 1;
    if (sc.flap)
        toServer.flaps.push_back({usToTicks(100), usToTicks(250)});
    net::FaultSpec toClient;
    toClient.dropP = sc.dropP;
    toClient.seed = sc.seed * 2 + 2;
    net::FaultInjector fwd(sys.eq(), toServer);
    net::FaultInjector rev(sys.eq(), toClient);
    fwd.install(sys.tor().attach(tb.serverNode().id()));
    rev.install(sys.tor().attach(tb.clientNode().id()));

    rpc::RpcClient &cli = tb.client();
    // Client timeout sits above the transport's full retransmit budget
    // (6 x 20us), so it only fires when the transport has given up.
    rpc::RetryPolicy policy;
    policy.timeout = usToTicks(150);
    policy.maxRetries = 3;
    policy.backoff = 2.0;
    policy.maxTimeout = usToTicks(600);
    cli.setRetryPolicy(policy);

    std::vector<std::uint8_t> payload(kPayload, 0xa5);
    std::uint64_t ok = 0, timed_out = 0;
    for (unsigned i = 0; i < kCalls; ++i) {
        sys.eq().scheduleAt(usToTicks(i), [&] {
            cli.callAsyncStatus(
                rpc::kEchoFn, payload.data(), payload.size(),
                [&](rpc::CallStatus st, const proto::RpcMessage &) {
                    (st == rpc::CallStatus::Ok ? ok : timed_out)++;
                });
        });
    }
    sys.runFor(sim::msToTicks(5));

    LossPoint p;
    p.ok = static_cast<double>(ok);
    p.timed_out = static_cast<double>(timed_out);
    p.client_retries = static_cast<double>(cli.retriesSent());
    p.late_responses = static_cast<double>(cli.lateResponses());
    p.orphans = static_cast<double>(cli.orphanResponses());
    p.retransmits = static_cast<double>(cack.retransmissions() +
                                        sack.retransmissions());
    p.dup_suppressed = static_cast<double>(cack.dupSuppressed() +
                                           sack.dupSuppressed());
    p.transport_lost =
        static_cast<double>(cack.lost() + sack.lost());
    p.wire_dropped = static_cast<double>(
        fwd.droppedCount() + fwd.flapDropped() + rev.droppedCount() +
        rev.flapDropped());
    p.p50_us = sim::ticksToUs(cli.latency().percentile(50));
    p.p99_us = sim::ticksToUs(cli.latency().percentile(99));
    return p;
}

void
run(BenchContext &ctx)
{
    ctx.seed(0x5eed);
    ctx.config("calls_per_point", static_cast<double>(kCalls));
    ctx.config("payload_bytes", static_cast<double>(kPayload));
    ctx.config("ack_timeout_us", sim::ticksToUs(kAckTimeout));
    ctx.config("ack_retries", static_cast<double>(kAckRetries));
    ctx.config("mtu_frames", static_cast<double>(kMtuFrames));
    ctx.config("client_timeout_us", 150.0);
    ctx.config("client_retries", 3.0);

    std::vector<std::function<LossPoint()>> scenarios;
    for (const Scenario &sc : kScenarios)
        scenarios.push_back([&sc] { return runScenario(sc); });
    const std::vector<LossPoint> results =
        ctx.runner().run(std::move(scenarios));

    tableHeader("Failure injection: reliability layer under seeded "
                "packet loss",
                "scenario      ok  t/o  retx  dup  lost  c-retry  "
                "dropped  p50(us)  p99(us)");

    for (std::size_t i = 0; i < std::size(kScenarios); ++i) {
        const LossPoint &p = results[i];
        std::printf("%-11s %4.0f %4.0f %5.0f %4.0f %5.0f %8.0f %8.0f "
                    "%8.2f %8.2f\n",
                    kScenarios[i].name, p.ok, p.timed_out, p.retransmits,
                    p.dup_suppressed, p.transport_lost, p.client_retries,
                    p.wire_dropped, p.p50_us, p.p99_us);
        ctx.point()
            .tag("scenario", kScenarios[i].name)
            .value("drop_p", kScenarios[i].dropP)
            .value("ok", p.ok)
            .value("timed_out", p.timed_out)
            .value("retransmits", p.retransmits)
            .value("dup_suppressed", p.dup_suppressed)
            .value("transport_lost", p.transport_lost)
            .value("client_retries", p.client_retries)
            .value("late_responses", p.late_responses)
            .value("orphans", p.orphans)
            .value("wire_dropped", p.wire_dropped)
            .value("p50_us", p.p50_us)
            .value("p99_us", p.p99_us);
    }

    bool all_exactly_once = true;
    bool no_orphans = true;
    for (const LossPoint &p : results) {
        all_exactly_once = all_exactly_once &&
            p.ok == static_cast<double>(kCalls) && p.timed_out == 0;
        no_orphans = no_orphans && p.orphans == 0;
    }
    const LossPoint &lossless = results[0];
    const LossPoint &one_pct = results[2];
    const LossPoint &five_pct = results[4];
    const LossPoint &flap = results[5];

    ctx.check("every RPC completes exactly once at every loss point",
              all_exactly_once);
    ctx.check("no unexplained orphan responses anywhere", no_orphans);
    ctx.check("lossless run does zero recovery work",
              lossless.retransmits == 0 && lossless.client_retries == 0 &&
                  lossless.wire_dropped == 0);
    ctx.check("1% loss is recovered by transport retransmission",
              one_pct.retransmits > 0 && one_pct.wire_dropped > 0);
    ctx.check("loss inflates the tail (p99 at 5% > lossless p99)",
              five_pct.p99_us > lossless.p99_us);
    ctx.check("a 150us flap outlives the transport budget -> client "
              "retries carry it",
              flap.transport_lost > 0 && flap.client_retries > 0);

    ctx.anchor("lossless_vs_1pct_p50_ratio", 1.0,
               lossless.p50_us == 0 ? 0 : one_pct.p50_us / lossless.p50_us,
               0.25);
}

} // namespace

DAGGER_BENCH_MAIN("fault_injection", run)
