/**
 * @file
 * KVS-over-Dagger integration tests (§5.6): MICA and memcached served
 * through the full fabric, object-level steering correctness, data
 * integrity through the wire format.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>

#include "app/adapters.hh"
#include "app/kvs_service.hh"
#include "app/workload.hh"
#include "rpc/client.hh"
#include "rpc/server.hh"
#include "rpc/system.hh"
#include "rpc/testbed.hh"

namespace {

using namespace dagger;
using namespace dagger::app;
using namespace dagger::rpc;
using sim::usToTicks;

TEST(HexKey, MatchesPrintfFormat)
{
    for (const std::uint64_t id :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xdeadbeef},
          UINT64_MAX}) {
        char buf[kKvMaxKey + 1];
        std::snprintf(buf, sizeof(buf), "%016" PRIx64, id);
        EXPECT_EQ(std::string_view(HexKey(id)),
                  std::string_view(buf, kKvMaxKey));
    }
}

TestbedConfig
config(unsigned server_flows, nic::LbScheme lb)
{
    TestbedConfig cfg;
    cfg.serverFlows = server_flows;
    cfg.soft.autoBatch = true;
    cfg.lb = lb;
    return cfg;
}

/** The KVS client over a testbed whose server steers on 8 B keys. */
struct KvsRig : Testbed
{
    explicit KvsRig(unsigned server_flows = 1,
                    nic::LbScheme lb = nic::LbScheme::ObjectLevel)
        : Testbed(config(server_flows, lb)), kvs(client())
    {
        serverNode().nicDev().setObjectLevelKey(0, 8);
    }

    KvsClient kvs;
};

TEST(KvsOverDagger, MicaSetThenGet)
{
    MicaKvs store(1, 1 << 20, 1 << 10);
    MicaBackend backend(store);
    KvsRig rig;
    KvsServer app(rig.server(), backend);

    bool stored = false;
    std::string got;
    rig.kvs.set("key00001", "hello", [&](bool ok) { stored = ok; });
    rig.system().runFor(usToTicks(50));
    ASSERT_TRUE(stored);

    rig.kvs.get("key00001", [&](bool hit, std::string_view v) {
        ASSERT_TRUE(hit);
        got.assign(v);
    });
    rig.system().runFor(usToTicks(50));
    EXPECT_EQ(got, "hello");
}

TEST(KvsOverDagger, GetMissReportsMiss)
{
    MicaKvs store(1, 1 << 20, 1 << 10);
    MicaBackend backend(store);
    KvsRig rig;
    KvsServer app(rig.server(), backend);
    bool called = false, hit = true;
    rig.kvs.get("missing1", [&](bool h, std::string_view) {
        called = true;
        hit = h;
    });
    rig.system().runFor(usToTicks(50));
    ASSERT_TRUE(called);
    EXPECT_FALSE(hit);
}

TEST(KvsOverDagger, ObjectLevelLbPreservesErewOnMica)
{
    MicaKvs store(4, 1 << 20, 1 << 10);
    MicaBackend backend(store);
    KvsRig rig(4, nic::LbScheme::ObjectLevel);
    KvsServer app(rig.server(), backend);

    KvWorkload wl(200, 0.6, 0.0, kTiny); // all SETs
    int done = 0;
    for (int i = 0; i < 100; ++i) {
        KvOp op = wl.next();
        rig.system().eq().scheduleAt(usToTicks(i), [&rig, &done, op] {
            rig.kvs.set(op.key, op.value, [&done](bool) { ++done; });
        });
    }
    rig.system().runFor(usToTicks(400));
    EXPECT_EQ(done, 100);
    // Hardware steering matched store partitioning: no EREW violations.
    EXPECT_EQ(store.totalStats().crossPartition, 0u);
}

TEST(KvsOverDagger, RoundRobinLbViolatesErewOnMica)
{
    MicaKvs store(4, 1 << 20, 1 << 10);
    MicaBackend backend(store);
    KvsRig rig(4, nic::LbScheme::RoundRobin);
    KvsServer app(rig.server(), backend);

    KvWorkload wl(200, 0.6, 0.0, kTiny);
    int done = 0;
    for (int i = 0; i < 100; ++i) {
        KvOp op = wl.next();
        rig.system().eq().scheduleAt(usToTicks(i), [&rig, &done, op] {
            rig.kvs.set(op.key, op.value, [&done](bool) { ++done; });
        });
    }
    rig.system().runFor(usToTicks(400));
    EXPECT_EQ(done, 100);
    // Round-robin ignores key affinity: most accesses land wrong.
    EXPECT_GT(store.totalStats().crossPartition, 50u);
}

TEST(KvsOverDagger, MemcachedBackendIntegrity)
{
    Memcached store(1 << 22);
    // The backend reads expiry time from the rig's clock.
    KvsRig rig;
    KvsRig *rig_ptr = &rig;
    MemcachedBackend backend(store, rig.system().eq());
    KvsServer mc_app(rig.server(), backend);

    KvWorkload wl(500, 0.8, 0.0, kSmall);
    std::vector<KvOp> ops;
    int stored = 0;
    for (int i = 0; i < 50; ++i) {
        ops.push_back(wl.next());
        const KvOp &op = ops.back();
        rig_ptr->system().eq().scheduleAt(usToTicks(i * 4), [&, op] {
            rig_ptr->kvs.set(op.key, op.value,
                             [&stored](bool) { ++stored; });
        });
    }
    rig.system().runFor(usToTicks(400));
    EXPECT_EQ(stored, 50);

    int verified = 0;
    for (const KvOp &op : ops) {
        rig.kvs.get(op.key, [&, op](bool hit, std::string_view v) {
            ASSERT_TRUE(hit) << op.key;
            EXPECT_EQ(std::string(v), wl.valueFor(op.key));
            ++verified;
        });
        rig.system().runFor(usToTicks(30));
    }
    EXPECT_EQ(verified, 50);
}

TEST(KvsOverDagger, MicaFasterThanMemcachedPerOp)
{
    MicaCost mica;
    MemcachedCost mc;
    EXPECT_LT(mica.hotGetCost, mc.getCost);
    EXPECT_LT(mica.hotSetCost, mc.setCost);
    // Shape anchor: memcached is several times slower per op (§5.6).
    EXPECT_GT(static_cast<double>(mc.getCost) / mica.hotGetCost, 2.5);
}

} // namespace
