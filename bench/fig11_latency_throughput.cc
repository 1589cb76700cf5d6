/**
 * @file
 * Reproduces Fig. 11 (left): latency-throughput curves for
 * single-core asynchronous round-trip 64 B RPCs with CCI-P batching
 * B in {1, 2, 4, auto}.
 *
 * Paper anchors: B=1 lowest median RTT 1.8 us, stable until its
 * saturation point ~7.2 Mrps; B=4 reaches 12.4 Mrps at 2.8 us; at low
 * load fixed B=4 pays a batch-fill wait; "auto" (soft-configured
 * dynamic batching) combines B=1's low-load latency with B=4's peak
 * throughput (the green dashed line).
 */

#include <cstdio>
#include <functional>
#include <vector>

#include "bench/harness.hh"

namespace {

using namespace dagger;
using namespace dagger::bench;

struct Curve
{
    const char *label;
    unsigned batch;
    bool autoBatch;
};

constexpr Curve kCurves[] = {
    {"B=1", 1, false},
    {"B=2", 2, false},
    {"B=4", 4, false},
    {"B=auto", 4, true},
};
constexpr double kLoads[] = {0.5, 1, 2, 3, 4, 5, 6,
                             7,   8, 9, 10, 11, 12};
constexpr unsigned kNumLoads = 13;

void
run(BenchContext &ctx)
{
    ctx.seed(0xbe0c4);
    ctx.config("threads", 1.0);
    ctx.config("payload_bytes", 48.0);
    ctx.config("measure_ms", 8.0);

    // All (curve, load) grid points are independent simulations; the
    // serial sweep stopped a curve past saturation, so the same stop
    // rule is applied below at aggregation time to keep tables
    // identical at any --jobs count.
    std::vector<std::function<Point()>> scenarios;
    for (const Curve &curve : kCurves)
        for (double load : kLoads)
            scenarios.push_back([curve, load] {
                rpc::TestbedConfig tb = echoTestbed();
                tb.soft.batchSize = curve.batch;
                tb.soft.autoBatch = curve.autoBatch;
                rpc::Testbed rig(tb);
                return rig.offer(load, sim::msToTicks(2),
                                 sim::msToTicks(8));
            });
    const std::vector<Point> results =
        ctx.runner().run(std::move(scenarios));

    tableHeader("Fig. 11 (left): latency vs throughput, single core, "
                "64B async RPCs",
                "curve    offered(Mrps) achieved(Mrps)  p50(us)  p99(us)");

    // Record (per curve): low-load median, peak achieved throughput.
    double lowload_p50[4] = {0};
    double peak_mrps[4] = {0};

    for (unsigned c = 0; c < 4; ++c) {
        for (unsigned l = 0; l < kNumLoads; ++l) {
            const double load = kLoads[l];
            const Point &p = results[c * kNumLoads + l];
            std::printf("%-8s %13.1f %14.2f %8.2f %8.2f\n",
                        kCurves[c].label, load, p.mrps, p.p50_us,
                        p.p99_us);
            ctx.point()
                .tag("curve", kCurves[c].label)
                .value("offered_mrps", load)
                .value("mrps", p.mrps)
                .value("p50_us", p.p50_us)
                .value("p99_us", p.p99_us);
            if (load == 0.5)
                lowload_p50[c] = p.p50_us;
            peak_mrps[c] = std::max(peak_mrps[c], p.mrps);
            // Stop reporting a curve well past its saturation point.
            if (p.mrps < load * 0.8)
                break;
        }
        std::printf("\n");
    }

    ctx.check("B=1 has the lowest low-load latency (paper 1.8us)",
              lowload_p50[0] < lowload_p50[2]);
    ctx.check("fixed B=4 pays a batch-fill wait at low load",
              lowload_p50[2] > lowload_p50[0] + 0.3);
    ctx.check("B=4 peak ~12.4 Mrps vs B=1 ~7.2 Mrps",
              peak_mrps[2] > 1.4 * peak_mrps[0]);
    ctx.check("B=2 lands between B=1 and B=4",
              peak_mrps[1] > peak_mrps[0] && peak_mrps[1] < peak_mrps[2]);
    ctx.check("auto keeps B=1's low-load latency",
              lowload_p50[3] < lowload_p50[0] + 0.4);
    ctx.check("auto reaches (near) B=4's peak throughput",
              peak_mrps[3] > 0.85 * peak_mrps[2]);

    ctx.anchor("b1_lowload_p50_us", 1.8, lowload_p50[0], 0.35);
    ctx.anchor("b1_peak_mrps", 7.2, peak_mrps[0], 0.35);
    ctx.anchor("b4_peak_mrps", 12.4, peak_mrps[2], 0.35);
}

} // namespace

DAGGER_BENCH_MAIN("fig11_latency_throughput", run)
