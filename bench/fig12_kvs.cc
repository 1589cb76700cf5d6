/**
 * @file
 * Reproduces Fig. 12: memcached and MICA running over Dagger on a
 * single core — median/99th-pct latency (write-intensive mix) and
 * peak throughput for the 50%-GET and 95%-GET mixes, tiny and small
 * datasets — plus the §5.6 high-skew (Zipf 0.9999) MICA runs.
 *
 * Scaling note: the paper populates 10M (memcached) / 200M (MICA)
 * unique pairs; we scale the key spaces down (0.2M / 1M) to keep the
 * harness laptop-sized.  Zipf access concentrates on the head of the
 * key space, so hit rates and locality behaviour are preserved; see
 * EXPERIMENTS.md.
 */

#include <cstdio>
#include <functional>

#include "bench/harness.hh"

namespace {

using namespace dagger;
using namespace dagger::app;
using namespace dagger::bench;

constexpr std::uint64_t kMcdKeys = 200'000;
constexpr std::uint64_t kMicaKeys = 1'000'000;

/** One core per side, steered by key hash (the Object-Level balancer). */
rpc::TestbedConfig
kvsTestbed()
{
    rpc::TestbedConfig cfg;
    cfg.txRingEntries = 512;
    cfg.rxRingEntries = 512;
    cfg.lb = nic::LbScheme::ObjectLevel;
    return cfg;
}

/** Closed-loop KVS run over @p tb: @p window requests in flight,
 *  measured over 10 ms after a 3 ms warm-up. */
Point
runKvs(rpc::Testbed &tb, KvBackend &backend, KvWorkload &wl,
       unsigned window)
{
    const sim::Tick warmup = sim::msToTicks(3);
    const sim::Tick measure = sim::msToTicks(10);
    tb.serverNode().nicDev().setObjectLevelKey(0, wl.shape().keyLen);
    KvsClient kvs(tb.client());
    KvsServer app(tb.server(), backend);
    std::function<void()> fire = [&] {
        KvOp op = wl.next();
        if (op.isGet)
            kvs.get(op.key, [&](bool, std::string_view) { fire(); });
        else
            kvs.set(op.key, op.value, [&](bool) { fire(); });
    };
    for (unsigned w = 0; w < window; ++w)
        fire();
    rpc::RpcClient &cli = tb.client();
    tb.system().runFor(warmup);
    const std::uint64_t d0 = cli.responses();
    cli.latency().reset();
    tb.system().runFor(measure);
    Point p;
    p.mrps = sim::ratePerSec(cli.responses() - d0, measure) / 1e6;
    p.p50_us = sim::ticksToUs(cli.latency().percentile(50));
    p.p99_us = sim::ticksToUs(cli.latency().percentile(99));
    return p;
}

struct KvsResult
{
    Point write_intense; ///< 50% GET (latency + throughput)
    Point read_intense;  ///< 95% GET (throughput)
};

KvsResult
runMica(DatasetShape shape, double theta)
{
    KvsResult result;
    for (double get_ratio : {0.5, 0.95}) {
        MicaKvs store(1, 64u << 20, 1u << 18);
        MicaBackend backend(store);
        KvWorkload wl(kMicaKeys, theta, get_ratio, shape);
        // Populate every key (the paper pre-loads the dataset).
        for (std::uint64_t i = 0; i < kMicaKeys; ++i) {
            const auto key = wl.keyFor(i);
            store.partition(0).set(key, wl.valueFor(key));
        }
        // Warm the LLC-residency model to its steady state: the paper
        // measures a long-running server whose cache already holds the
        // hot working set.
        {
            KvWorkload warm(kMicaKeys, theta, get_ratio, shape);
            sim::Tick scratch = 0;
            for (int i = 0; i < 1'000'000; ++i) {
                KvOp op = warm.next();
                if (op.isGet)
                    backend.kvGet(0, op.key, scratch);
                else
                    backend.kvSet(0, op.key, op.value, scratch);
            }
        }
        rpc::Testbed rig(kvsTestbed());
        Point p = runKvs(rig, backend, wl, /*window=*/48); // saturation
        // Latency at paper-like pipelining.
        rpc::Testbed lat_rig(kvsTestbed());
        Point lat = runKvs(lat_rig, backend, wl, /*window=*/12);
        p.p50_us = lat.p50_us;
        p.p99_us = lat.p99_us;
        if (get_ratio == 0.5)
            result.write_intense = p;
        else
            result.read_intense = p;
    }
    return result;
}

KvsResult
runMemcached(DatasetShape shape)
{
    KvsResult result;
    for (double get_ratio : {0.5, 0.95}) {
        Memcached store(128u << 20);
        KvWorkload wl(kMcdKeys, 0.99, get_ratio, shape);
        for (std::uint64_t i = 0; i < kMcdKeys; ++i) {
            const auto key = wl.keyFor(i);
            store.set(key, wl.valueFor(key));
        }
        // The backend reads expiry time from the testbed's clock.
        rpc::Testbed rig(kvsTestbed());
        MemcachedBackend backend(store, rig.system().eq());
        Point p = runKvs(rig, backend, wl, /*window=*/8); // saturation
        // Latency at light pipelining (the paper's 0.6 Mrps operating
        // point implies ~2 outstanding requests).
        rpc::Testbed lat_rig(kvsTestbed());
        MemcachedBackend lat_backend(store, lat_rig.system().eq());
        Point lat = runKvs(lat_rig, lat_backend, wl, /*window=*/1);
        p.p50_us = lat.p50_us;
        p.p99_us = lat.p99_us;
        if (get_ratio == 0.5)
            result.write_intense = p;
        else
            result.read_intense = p;
    }
    return result;
}

void
run(BenchContext &ctx)
{
    ctx.seed(0xbe0c4);
    ctx.config("mcd_keys", static_cast<double>(kMcdKeys));
    ctx.config("mica_keys", static_cast<double>(kMicaKeys));

    struct Row
    {
        const char *label;
        double paper_p50, paper_p99, paper_t50, paper_t95;
    };

    const Row rows[] = {
        {"mcd-tiny", 2.8, 6.9, 0.6, 1.5},
        {"mcd-small", 3.2, 7.8, 0.6, 1.5},
        {"mica-tiny", 3.4, 5.4, 4.7, 5.2},
        {"mica-small", 3.5, 5.7, 4.3, 5.0},
    };

    // The four Fig. 12 rows plus the §5.6 high-skew MICA run, all
    // independent full-system simulations.
    std::vector<std::function<KvsResult()>> scenarios = {
        [] { return runMemcached(kTiny); },
        [] { return runMemcached(kSmall); },
        [] { return runMica(kTiny, 0.99); },
        [] { return runMica(kSmall, 0.99); },
        [] { return runMica(kTiny, 0.9999); },
    };
    const std::vector<KvsResult> results =
        ctx.runner().run(std::move(scenarios));

    tableHeader("Fig. 12: memcached and MICA over Dagger (single core)",
                "system      paper: p50  p99  thr50%GET thr95%GET | "
                "measured: p50   p99  thr50  thr95");

    for (unsigned i = 0; i < 4; ++i) {
        const Row &row = rows[i];
        const KvsResult &r = results[i];
        std::printf("%-11s %9.1f %5.1f %8.1f %9.1f | %12.2f %5.2f %6.2f "
                    "%6.2f\n",
                    row.label, row.paper_p50, row.paper_p99, row.paper_t50,
                    row.paper_t95, r.write_intense.p50_us,
                    r.write_intense.p99_us, r.write_intense.mrps,
                    r.read_intense.mrps);
        ctx.point()
            .tag("system", row.label)
            .value("p50_us", r.write_intense.p50_us)
            .value("p99_us", r.write_intense.p99_us)
            .value("mrps_50get", r.write_intense.mrps)
            .value("mrps_95get", r.read_intense.mrps);
    }

    // §5.6 high-skew MICA runs: "with such a workload, Dagger achieves
    // a throughput of 10.2 Mrps and 9.8 Mrps for read- and
    // write-intensive workloads".
    const KvsResult &hi = results[4];
    std::printf("%-11s %9s %5s %8.1f %9.1f | %12.2f %5.2f %6.2f %6.2f\n",
                "mica-0.9999", "-", "-", 9.8, 10.2,
                hi.write_intense.p50_us, hi.write_intense.p99_us,
                hi.write_intense.mrps, hi.read_intense.mrps);
    ctx.point()
        .tag("system", "mica-0.9999")
        .value("p50_us", hi.write_intense.p50_us)
        .value("p99_us", hi.write_intense.p99_us)
        .value("mrps_50get", hi.write_intense.mrps)
        .value("mrps_95get", hi.read_intense.mrps);

    ctx.check("MICA sustains several x memcached's throughput",
              results[2].read_intense.mrps >
                  3.0 * results[0].read_intense.mrps);
    ctx.check("memcached ~0.6 Mrps at 50% GET (paper 0.6)",
              results[0].write_intense.mrps > 0.3 &&
                  results[0].write_intense.mrps < 1.2);
    ctx.check("MICA tiny ~4.7 Mrps at 50% GET (paper 4.7)",
              results[2].write_intense.mrps > 3.4 &&
                  results[2].write_intense.mrps < 6.2);
    ctx.check("read-intensive mixes beat write-intensive",
              results[2].read_intense.mrps >
                  results[2].write_intense.mrps &&
                  results[0].read_intense.mrps >
                      results[0].write_intense.mrps);
    ctx.check("KVS access latency stays in the us range "
              "(paper 2.8-3.5 p50)",
              results[2].write_intense.p50_us < 8.0 &&
                  results[0].write_intense.p50_us < 16.0);
    // With a YCSB-style analytic Zipf, theta 0.99 -> 0.9999 changes
    // cache locality only marginally (the top-k mass ratio moves by
    // ~2%), so the paper's ~2x gain is not reproducible from the
    // distribution alone; see EXPERIMENTS.md.  We check direction.
    ctx.check("higher skew (0.9999) does not reduce throughput",
              hi.read_intense.mrps >=
                  0.97 * results[2].read_intense.mrps);
    ctx.check("tiny >= small throughput (smaller requests)",
              results[2].write_intense.mrps >=
                  0.95 * results[3].write_intense.mrps);

    ctx.anchor("mcd_tiny_mrps_50get", 0.6, results[0].write_intense.mrps,
               0.50);
    ctx.anchor("mica_tiny_mrps_50get", 4.7,
               results[2].write_intense.mrps, 0.30);
}

} // namespace

DAGGER_BENCH_MAIN("fig12_kvs", run)
