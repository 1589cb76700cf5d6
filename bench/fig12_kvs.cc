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

/** Closed-loop KVS driver over the full Dagger stack, one core. */
class KvsRig
{
  public:
    KvsRig(KvBackend &backend, KvWorkload &wl)
        : _wl(wl), _sys(ic::IfaceKind::Upi)
    {
        nic::NicConfig cfg;
        cfg.numFlows = 1;
        cfg.txRingEntries = 512;
        cfg.rxRingEntries = 512;
        nic::SoftConfig soft;
        soft.batchSize = 4;

        _clientNode = &_sys.addNode(cfg, soft);
        _serverNode = &_sys.addNode(cfg, soft);
        _serverNode->nicDev().setObjectLevelKey(0, wl.shape().keyLen);

        // One core per side.
        _clientCpus = std::make_unique<rpc::CpuSet>(_sys.eq(), 1);
        _serverCpus = std::make_unique<rpc::CpuSet>(_sys.eq(), 1);

        _client = std::make_unique<rpc::RpcClient>(
            *_clientNode, 0, _clientCpus->core(0).thread(0));
        _client->setConnection(_sys.connect(*_clientNode, 0, *_serverNode,
                                            0, nic::LbScheme::ObjectLevel));
        _kvs = std::make_unique<KvsClient>(*_client);

        _server = std::make_unique<rpc::RpcThreadedServer>(*_serverNode);
        _server->addThread(0, _serverCpus->core(0).thread(0));
        _app = std::make_unique<KvsServer>(*_server, backend);
    }

    rpc::DaggerSystem &system() { return _sys; }
    rpc::RpcThreadedServer &server() { return *_server; }
    /** Where backend-side work (e.g. memcached hash costs) is
     *  scheduled. */
    sim::EventQueue &serverEq() { return _sys.eq(); }

    Point
    run(unsigned window, sim::Tick warmup = sim::msToTicks(3),
        sim::Tick measure = sim::msToTicks(10))
    {
        for (unsigned w = 0; w < window; ++w)
            fire();
        _sys.runFor(warmup);
        const std::uint64_t d0 = _client->responses();
        _client->latency().reset();
        _sys.runFor(measure);
        Point p;
        p.mrps = sim::ratePerSec(_client->responses() - d0, measure) / 1e6;
        p.p50_us = sim::ticksToUs(_client->latency().percentile(50));
        p.p99_us = sim::ticksToUs(_client->latency().percentile(99));
        return p;
    }

  private:
    void
    fire()
    {
        KvOp op = _wl.next();
        if (op.isGet) {
            _kvs->get(op.key,
                      [this](bool, std::string_view) { fire(); });
        } else {
            _kvs->set(op.key, op.value, [this](bool) { fire(); });
        }
    }

    KvWorkload &_wl;
    rpc::DaggerSystem _sys;
    rpc::DaggerNode *_clientNode;
    rpc::DaggerNode *_serverNode;
    std::unique_ptr<rpc::CpuSet> _clientCpus;
    std::unique_ptr<rpc::CpuSet> _serverCpus;
    std::unique_ptr<rpc::RpcClient> _client;
    std::unique_ptr<KvsClient> _kvs;
    std::unique_ptr<rpc::RpcThreadedServer> _server;
    std::unique_ptr<KvsServer> _app;
};

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
        KvsRig rig(backend, wl);
        Point p = rig.run(/*window=*/48); // saturation throughput
        KvsRig lat_rig(backend, wl);
        Point lat = lat_rig.run(/*window=*/12); // paper-like pipelining
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
        // The backend needs the rig's event queue: build the rig with
        // a placeholder backend, then re-attach a memcached-backed
        // KvsServer (handler re-registration replaces the placeholder).
        MicaKvs dummy(1, 1 << 20, 1 << 10);
        MicaBackend dummy_backend(dummy);
        KvsRig rig(dummy_backend, wl);
        MemcachedBackend backend(store, rig.serverEq());
        KvsServer mc_app(rig.server(), backend);
        Point p = rig.run(/*window=*/8); // saturation throughput
        // Latency at light pipelining (the paper's 0.6 Mrps operating
        // point implies ~2 outstanding requests).
        KvsRig lat_rig(dummy_backend, wl);
        MemcachedBackend lat_backend(store, lat_rig.serverEq());
        KvsServer lat_app(lat_rig.server(), lat_backend);
        Point lat = lat_rig.run(/*window=*/1);
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
