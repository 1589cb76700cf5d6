/**
 * @file
 * Ablation: NIC load balancers on a partitioned KVS (§5.7).
 *
 * "MICA does not work correctly with round-robin/random load
 * balancers due to the way it partitions the object heap across CPU
 * cores/NIC flows. ... we implement our own application-specific
 * Object-Level load balancer for MICA tiers by applying the hash
 * function to each request's key on the FPGA."  This bench serves a
 * 4-partition MICA through both balancers and measures EREW
 * violations and throughput.
 */

#include <cstdio>
#include <functional>
#include <vector>

#include "bench/harness.hh"

namespace {

using namespace dagger;
using namespace dagger::app;
using namespace dagger::bench;

struct Result
{
    double mrps = 0;
    double violation_rate = 0;
};

Result
runWith(nic::LbScheme lb)
{
    constexpr unsigned kPartitions = 4;
    rpc::TestbedConfig cfg;
    cfg.serverFlows = kPartitions;
    cfg.lb = lb;
    rpc::Testbed tb(cfg);
    tb.serverNode().nicDev().setObjectLevelKey(0, 8);

    MicaKvs store(kPartitions, 16u << 20, 1u << 14);
    MicaBackend backend(store);
    KvsServer kvs_server(tb.server(), backend);

    rpc::RpcClient &client = tb.client();
    KvsClient typed(client);

    KvWorkload wl(100'000, 0.99, 0.5, kTiny);
    // Closed loop, window 64.
    std::function<void()> fire = [&] {
        KvOp op = wl.next();
        if (op.isGet)
            typed.get(op.key, [&](bool, std::string_view) { fire(); });
        else
            typed.set(op.key, op.value, [&](bool) { fire(); });
    };
    for (int w = 0; w < 64; ++w)
        fire();

    tb.system().runFor(sim::msToTicks(2));
    const std::uint64_t d0 = client.responses();
    tb.system().runFor(sim::msToTicks(8));

    Result r;
    r.mrps = sim::ratePerSec(client.responses() - d0, sim::msToTicks(8)) /
             1e6;
    const auto stats = store.totalStats();
    const double ops = static_cast<double>(stats.gets + stats.sets);
    r.violation_rate = ops > 0
        ? static_cast<double>(stats.crossPartition) / ops
        : 0.0;
    return r;
}

void
run(BenchContext &ctx)
{
    ctx.seed(0xbe0c4);
    ctx.config("partitions", 4.0);

    std::vector<std::function<Result()>> scenarios = {
        [] { return runWith(nic::LbScheme::RoundRobin); },
        [] { return runWith(nic::LbScheme::ObjectLevel); },
    };
    const std::vector<Result> results =
        ctx.runner().run(std::move(scenarios));
    const Result &rr = results[0];
    const Result &ol = results[1];

    tableHeader("Ablation: round-robin vs object-level LB on 4-partition "
                "MICA",
                "balancer       throughput(Mrps)   EREW violation rate");

    std::printf("%-14s %16.2f %21.3f\n", "round-robin", rr.mrps,
                rr.violation_rate);
    std::printf("%-14s %16.2f %21.3f\n", "object-level", ol.mrps,
                ol.violation_rate);
    ctx.point()
        .tag("balancer", "round-robin")
        .value("mrps", rr.mrps)
        .value("violation_rate", rr.violation_rate);
    ctx.point()
        .tag("balancer", "object-level")
        .value("mrps", ol.mrps)
        .value("violation_rate", ol.violation_rate);

    ctx.check("object-level steering preserves EREW exactly",
              ol.violation_rate == 0.0);
    ctx.check("round-robin violates EREW on ~3/4 of accesses",
              rr.violation_rate > 0.6);
    ctx.check("object-level yields higher throughput",
              ol.mrps > 1.1 * rr.mrps);

    // Round-robin across P partitions sends (P-1)/P of requests to the
    // wrong flow: 0.75 for the 4-partition setup.
    ctx.anchor("rr_violation_rate", 0.75, rr.violation_rate, 0.15);
}

} // namespace

DAGGER_BENCH_MAIN("abl_load_balancer", run)
