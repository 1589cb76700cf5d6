/**
 * @file
 * Ablation: connection-cache sizing and DRAM backing (§4.2, §6).
 *
 * The paper sizes the on-FPGA connection cache by application need
 * ("If some application requires many connections, N can be set to a
 * high value") and proposes DRAM backing of evicted entries as future
 * work ("allow more connections with certain performance penalty due
 * to NIC cache misses") — implemented here.  This bench opens many
 * connections over one flow (the SRQ model) and sweeps the cache
 * size: small caches thrash and pay the coherent-fill penalty per
 * miss; a right-sized cache serves everything on-chip.
 */

#include <cstdio>
#include <functional>
#include <vector>

#include "bench/harness.hh"

namespace {

using namespace dagger;
using namespace dagger::bench;

struct Result
{
    std::size_t cache_entries = 0;
    double p50_us = 0;
    double hit_rate = 0;
};

Result
runWith(std::size_t cache_entries, unsigned connections)
{
    rpc::TestbedConfig cfg;
    cfg.soft.autoBatch = true;
    cfg.connCacheEntries = cache_entries;
    cfg.connCacheDramBacking = true;
    cfg.handler = rpc::echoHandler(sim::nsToTicks(20));
    rpc::Testbed tb(cfg);
    rpc::DaggerSystem &sys = tb.system();
    rpc::DaggerNode &cnode = tb.clientNode();
    rpc::DaggerNode &snode = tb.serverNode();

    rpc::RpcClient &client = tb.client();
    client.setSharedByThreads(true); // SRQ: many conns share the rings

    // The testbed's own connection is the first of the client's.
    std::vector<proto::ConnId> conns{client.connection()};
    for (unsigned c = 1; c < connections; ++c)
        conns.push_back(sys.connect(cnode, 0, snode, 0,
                                    nic::LbScheme::Static));

    // Round-robin over connections, modest open-loop load.
    sim::Rng rng(7);
    unsigned next = 0;
    for (int i = 0; i < 4000; ++i) {
        sys.eq().scheduleAt(sim::nsToTicks(500.0 * i), [&, i] {
            std::uint64_t v = i;
            client.callAsyncOn(conns[next], rpc::kEchoFn, &v, sizeof(v));
            next = (next + 1) % conns.size();
        });
    }
    sys.runFor(sim::msToTicks(6));

    Result r;
    r.cache_entries = cache_entries;
    r.p50_us = sim::ticksToUs(client.latency().percentile(50));
    const auto &cm_client = cnode.nicDev().connectionManager();
    const auto &cm_server = snode.nicDev().connectionManager();
    const double hits = static_cast<double>(cm_client.hits() +
                                            cm_server.hits());
    const double total = hits + static_cast<double>(cm_client.misses() +
                                                    cm_server.misses());
    r.hit_rate = total > 0 ? hits / total : 0.0;
    return r;
}

constexpr unsigned kConnections = 256;
constexpr std::size_t kCacheSizes[] = {16, 64, 256, 1024};

void
run(BenchContext &ctx)
{
    ctx.seed(7);
    ctx.config("connections", static_cast<double>(kConnections));

    std::vector<std::function<Result()>> scenarios;
    for (std::size_t entries : kCacheSizes)
        scenarios.push_back(
            [entries] { return runWith(entries, kConnections); });
    const std::vector<Result> results =
        ctx.runner().run(std::move(scenarios));

    tableHeader("Ablation: connection cache size (256 connections, DRAM "
                "backing on)",
                "cache entries   conn-cache hit rate   median RTT (us)");

    for (const Result &r : results) {
        std::printf("%13zu %21.3f %17.2f\n", r.cache_entries, r.hit_rate,
                    r.p50_us);
        ctx.point()
            .value("cache_entries", static_cast<double>(r.cache_entries))
            .value("hit_rate", r.hit_rate)
            .value("p50_us", r.p50_us);
    }

    // Each RPC looks the connection up twice in short succession
    // (egress + response steering), so even a thrashing cache floors
    // at ~50% hits; below that every *first* lookup is a miss.
    ctx.check("an undersized cache thrashes (every 1st lookup misses)",
              results[0].hit_rate < 0.55);
    ctx.check("a right-sized cache serves on-chip",
              results.back().hit_rate > 0.95);
    ctx.check("misses cost latency (coherent fills, §4.2)",
              results[0].p50_us > results.back().p50_us + 0.2);
    ctx.check("hit rate improves monotonically with size",
              results[0].hit_rate <= results[1].hit_rate &&
                  results[1].hit_rate <= results[2].hit_rate &&
                  results[2].hit_rate <= results[3].hit_rate);

    ctx.anchor("right_sized_hit_rate", 1.0, results.back().hit_rate,
               0.05);
}

} // namespace

DAGGER_BENCH_MAIN("abl_conn_cache", run)
