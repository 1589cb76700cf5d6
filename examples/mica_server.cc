/**
 * @file
 * MICA-over-Dagger (§5.6): a partitioned KVS served through the
 * hardware-offloaded RPC stack, with the NIC's Object-Level load
 * balancer steering each key to its owning partition.
 *
 * Demonstrates:
 *  - multi-flow servers (one flow = one MICA partition, EREW),
 *  - hardware key-hash steering matching the store's partitioning,
 *  - the Zipfian workloads of the paper (tiny / small datasets),
 *  - data-integrity verification through the full wire path.
 *
 * Build & run:  ./build/examples/mica_server
 */

#include <cstdio>

#include "app/adapters.hh"
#include "app/kvs_service.hh"
#include "app/workload.hh"
#include "rpc/testbed.hh"

int
main()
{
    using namespace dagger;
    constexpr unsigned kPartitions = 4;
    constexpr int kOps = 20000;

    // One client flow; one server flow (and core) per partition, with
    // the NIC steering each request by the hash of its key.
    rpc::TestbedConfig cfg;
    cfg.serverFlows = kPartitions;
    cfg.lb = nic::LbScheme::ObjectLevel;
    rpc::Testbed tb(cfg);
    rpc::DaggerSystem &sys = tb.system();
    tb.serverNode().nicDev().setObjectLevelKey(0, 8); // key at offset 0

    // The store: 4 partitions, steered by the same hash the NIC uses.
    app::MicaKvs store(kPartitions, 64u << 20, 1u << 16);
    app::MicaBackend backend(store);
    app::KvsServer kvs_server(tb.server(), backend);

    rpc::RpcClient &rpc_client = tb.client();
    app::KvsClient kvs(rpc_client);

    // Tiny dataset, write-intensive mix, Zipf 0.99 (§5.6).
    app::KvWorkload wl(100'000, 0.99, 0.5, app::kTiny);

    std::uint64_t hits = 0, gets = 0, integrity_errors = 0;
    int issued = 0;

    // Closed-loop driver with a window of 16 outstanding ops.
    std::function<void()> issue = [&] {
        if (issued >= kOps)
            return;
        ++issued;
        app::KvOp op = wl.next();
        if (op.isGet) {
            ++gets;
            const std::string expect = wl.valueFor(op.key);
            kvs.get(op.key,
                    [&, expect](bool hit, std::string_view value) {
                        if (hit) {
                            ++hits;
                            if (std::string(value) != expect)
                                ++integrity_errors;
                        }
                        issue();
                    });
        } else {
            kvs.set(op.key, op.value, [&](bool) { issue(); });
        }
    };
    for (int w = 0; w < 16; ++w)
        issue();

    sys.eq().runFor(sim::msToTicks(500));

    const auto &stats = store.totalStats();
    std::printf("MICA over Dagger: %d ops in %.2f ms simulated\n", issued,
                sim::ticksToUs(sys.eq().now()) / 1000.0);
    std::printf("  gets=%llu hit-rate=%.1f%% integrity-errors=%llu\n",
                static_cast<unsigned long long>(gets),
                gets ? 100.0 * static_cast<double>(hits) /
                           static_cast<double>(gets)
                     : 0.0,
                static_cast<unsigned long long>(integrity_errors));
    std::printf("  EREW violations (should be 0 with object-level LB): "
                "%llu\n",
                static_cast<unsigned long long>(stats.crossPartition));
    std::printf("  median RTT %.2f us, p99 %.2f us\n",
                sim::ticksToUs(rpc_client.latency().percentile(50)),
                sim::ticksToUs(rpc_client.latency().percentile(99)));
    return integrity_errors == 0 && stats.crossPartition == 0 ? 0 : 1;
}
