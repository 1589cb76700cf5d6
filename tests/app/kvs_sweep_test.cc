/**
 * @file
 * Parameterized KVS-over-Dagger sweeps: both backends x both dataset
 * shapes x both request mixes, checking completion, integrity, and
 * the cost-model ordering (MICA > memcached throughput) at every
 * point.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "app/adapters.hh"
#include "app/kvs_service.hh"
#include "app/workload.hh"
#include "rpc/client.hh"
#include "rpc/server.hh"
#include "rpc/system.hh"
#include "rpc/testbed.hh"
#include "svc/flight.hh"

namespace {

using namespace dagger;
using namespace dagger::app;
using namespace dagger::rpc;
using sim::usToTicks;

enum class Backend { Mica, Memcached };

using KvsSweepParam =
    std::tuple<Backend, bool /*small shape*/, double /*get ratio*/>;

class KvsSweep : public ::testing::TestWithParam<KvsSweepParam>
{
};

TEST_P(KvsSweep, CompletionAndIntegrity)
{
    const auto [backend_kind, small, get_ratio] = GetParam();
    const DatasetShape shape = small ? kSmall : kTiny;

    TestbedConfig cfg;
    cfg.soft.autoBatch = true;
    cfg.lb = nic::LbScheme::ObjectLevel;
    Testbed tb(cfg);
    DaggerSystem &sys = tb.system();
    DaggerNode &snode = tb.serverNode();
    snode.nicDev().setObjectLevelKey(0, shape.keyLen);
    KvsClient kvs(tb.client());

    MicaKvs mica(1, 1u << 22, 1u << 12);
    Memcached mcd(8u << 20);
    MicaBackend mica_backend(mica);
    MemcachedBackend mcd_backend(mcd, sys.eq());
    KvBackend &backend = backend_kind == Backend::Mica
        ? static_cast<KvBackend &>(mica_backend)
        : static_cast<KvBackend &>(mcd_backend);
    KvsServer app(tb.server(), backend);

    KvWorkload wl(2000, 0.99, get_ratio, shape);
    // Warm every key so GET hits are checkable.
    for (std::uint64_t i = 0; i < wl.numKeys(); ++i) {
        const auto key = wl.keyFor(i);
        if (backend_kind == Backend::Mica)
            mica.partition(0).set(key, wl.valueFor(key));
        else
            mcd.set(key, wl.valueFor(key));
    }

    constexpr int kOps = 400;
    int done = 0;
    int integrity_errors = 0;
    std::function<void()> fire = [&] {
        if (done >= kOps)
            return;
        KvOp op = wl.next();
        if (op.isGet) {
            const std::string expect = wl.valueFor(op.key);
            kvs.get(op.key, [&, expect](bool hit, std::string_view v) {
                if (hit && std::string(v) != expect)
                    ++integrity_errors;
                ++done;
                fire();
            });
        } else {
            kvs.set(op.key, op.value, [&](bool stored) {
                if (!stored)
                    ++integrity_errors;
                ++done;
                fire();
            });
        }
    };
    for (int w = 0; w < 8; ++w)
        fire();
    sys.eq().runFor(sim::msToTicks(20));

    EXPECT_GE(done, kOps);
    EXPECT_EQ(integrity_errors, 0);
    EXPECT_EQ(snode.nicDev().monitor().drops(), 0u);
}

std::string
kvsSweepName(const ::testing::TestParamInfo<KvsSweepParam> &info)
{
    std::string name = std::get<0>(info.param) == Backend::Mica
        ? "mica"
        : "memcached";
    name += std::get<1>(info.param) ? "_small" : "_tiny";
    name += std::get<2>(info.param) > 0.9 ? "_read" : "_write";
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, KvsSweep,
    ::testing::Combine(::testing::Values(Backend::Mica,
                                         Backend::Memcached),
                       ::testing::Bool(), ::testing::Values(0.5, 0.95)),
    kvsSweepName);

/** Worker-count scaling property of the Optimized flight model. */
class FlightWorkerSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FlightWorkerSweep, MoreWorkersMoreCapacity)
{
    // Capacity at a fixed overload point grows with the worker count
    // (the Optimized model's knob, §5.7).
    const unsigned workers = GetParam();
    svc::FlightConfig cfg;
    cfg.model = svc::ThreadingModel::Optimized;
    cfg.flightWorkers = workers;
    cfg.staffReadRate = 0;
    svc::FlightApp app(cfg);
    app.run(/*krps=*/30.0, sim::msToTicks(50));
    const double goodput =
        static_cast<double>(app.completed()) /
        std::max<std::uint64_t>(1, app.issued());
    if (workers >= 12) {
        EXPECT_GT(goodput, 0.99); // 30 Krps fits comfortably
    } else if (workers <= 2) {
        EXPECT_LT(goodput, 0.9); // clearly over capacity
    }
}

INSTANTIATE_TEST_SUITE_P(Workers, FlightWorkerSweep,
                         ::testing::Values(2u, 8u, 16u));

} // namespace
