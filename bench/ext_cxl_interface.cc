/**
 * @file
 * Extension: the CXL outlook of §4.3 and §6, implemented.
 *
 * "Some specifications, such as the upcoming peripheral memory
 * interconnect CXL, allow non-cacheable writes to the device memory,
 * meaning that the CPU can directly write RPCs to the NIC, so in
 * addition to improved CPU efficiency, the model also reduces
 * latency, since only one bus transaction is required to send data to
 * the device."  The paper could not evaluate this (no CXL FPGA IP in
 * 2021); the model here projects it: direct device writes remove the
 * invalidation/poll round trip and all host-buffer bookkeeping.
 */

#include <cstdio>
#include <functional>
#include <vector>

#include "bench/harness.hh"

namespace {

using namespace dagger;
using namespace dagger::bench;

struct RowResult
{
    Point lat;
    double sat = 0;
};

struct RowSpec
{
    const char *label;
    ic::IfaceKind iface;
    unsigned batch;
};

constexpr RowSpec kRows[] = {
    {"UPI B=1", ic::IfaceKind::Upi, 1},
    {"UPI B=4", ic::IfaceKind::Upi, 4},
    {"CXL B=1", ic::IfaceKind::Cxl, 1},
    {"CXL B=4", ic::IfaceKind::Cxl, 4},
};

RowResult
runRow(const RowSpec &spec)
{
    auto testbed = [&spec] {
        rpc::TestbedConfig tb = echoTestbed();
        tb.iface = spec.iface;
        tb.soft.batchSize = spec.batch;
        return tb;
    };
    RowResult r;
    {
        rpc::Testbed rig(testbed());
        r.lat = rig.offer(0.5, sim::msToTicks(1), sim::msToTicks(6));
    }
    {
        rpc::Testbed rig(testbed());
        r.sat = rig.saturate(96).mrps;
    }
    return r;
}

void
run(BenchContext &ctx)
{
    ctx.seed(0xbe0c4);
    ctx.config("payload_bytes", 64.0);

    std::vector<std::function<RowResult()>> scenarios;
    for (const RowSpec &spec : kRows)
        scenarios.push_back([&spec] { return runRow(spec); });
    const std::vector<RowResult> rows =
        ctx.runner().run(std::move(scenarios));

    tableHeader("Extension: projected CXL interface vs UPI (64B RPCs, "
                "single core)",
                "interface   low-load p50(us)  p99(us)   saturation Mrps");

    for (unsigned i = 0; i < 4; ++i) {
        std::printf("%-11s %15.2f %8.2f %17.2f\n", kRows[i].label,
                    rows[i].lat.p50_us, rows[i].lat.p99_us, rows[i].sat);
        ctx.point()
            .tag("interface", kRows[i].label)
            .value("lowload_p50_us", rows[i].lat.p50_us)
            .value("lowload_p99_us", rows[i].lat.p99_us)
            .value("saturation_mrps", rows[i].sat);
    }

    ctx.check("CXL cuts the B=1 RTT below UPI (one transaction)",
              rows[2].lat.p50_us < rows[0].lat.p50_us - 0.2);
    ctx.check("CXL needs no batching to reach UPI-B4 throughput",
              rows[2].sat > 0.95 * rows[1].sat);
    ctx.check("CXL B=1 throughput beats UPI B=1 (no bookkeeping)",
              rows[2].sat > 1.3 * rows[0].sat);
    ctx.check("batching adds little on top of CXL",
              rows[3].lat.p50_us + 0.05 >= rows[2].lat.p50_us);

    ctx.anchor("cxl_b1_vs_upi_b4_sat_ratio", 1.0,
               rows[2].sat / rows[1].sat, 0.15);
}

} // namespace

DAGGER_BENCH_MAIN("ext_cxl_interface", run)
