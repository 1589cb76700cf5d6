/**
 * @file
 * Ablation: FPGA polling mode (§4.4.1).
 *
 * "Dagger starts by polling its local cache which is coherent with
 * the processor's LLC ... However, since the FPGA allocates data in
 * its local cache in this case, it causes the CPU to lose ownership
 * of the corresponding cache lines therefore hurting the data
 * transfer's efficiency.  For this reason, Dagger dynamically
 * switches to direct polling of the processor's LLC when the load
 * becomes high."
 *
 * We pin each mode and compare: local-cache polling is
 * lower-latency at light load; LLC polling is cheaper per request at
 * saturation; the dynamic switch gets both.
 */

#include <cstdio>
#include <functional>
#include <vector>

#include "bench/harness.hh"

namespace {

using namespace dagger;
using namespace dagger::bench;

enum class Mode { ForcedLocal, ForcedLlc, Dynamic };

const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::ForcedLocal:
        return "local-cache";
      case Mode::ForcedLlc:
        return "LLC-direct";
      case Mode::Dynamic:
        return "dynamic";
    }
    return "?";
}

std::unique_ptr<rpc::Testbed>
makeRig(Mode m)
{
    auto rig = std::make_unique<rpc::Testbed>(echoTestbed());
    for (std::size_t n = 0; n < 2; ++n) {
        auto &soft = rig->system().node(n).nicDev().softConfig();
        auto &port = rig->system().node(n).nicDev().cciPort();
        switch (m) {
          case Mode::ForcedLocal:
            soft.llcPollThresholdMrps = 1e9; // never switch
            port.setPollMode(ic::PollMode::LocalCache);
            break;
          case Mode::ForcedLlc:
            soft.llcPollThresholdMrps = 0.0; // switch immediately
            port.setPollMode(ic::PollMode::Llc);
            break;
          case Mode::Dynamic:
            break; // default threshold
        }
    }
    return rig;
}

struct ModePoint
{
    double lowload_p50 = 0;
    double peak_mrps = 0;
};

ModePoint
runMode(Mode m)
{
    ModePoint r;
    {
        auto rig = makeRig(m);
        Point p = rig->offer(0.5, sim::msToTicks(1), sim::msToTicks(6));
        r.lowload_p50 = p.p50_us;
    }
    {
        auto rig = makeRig(m);
        Point p = rig->saturate(96);
        r.peak_mrps = p.mrps;
    }
    return r;
}

constexpr Mode kModes[] = {Mode::ForcedLocal, Mode::ForcedLlc,
                           Mode::Dynamic};

void
run(BenchContext &ctx)
{
    ctx.seed(0xbe0c4);

    std::vector<std::function<ModePoint()>> scenarios;
    for (Mode m : kModes)
        scenarios.push_back([m] { return runMode(m); });
    const std::vector<ModePoint> results =
        ctx.runner().run(std::move(scenarios));

    tableHeader("Ablation: FPGA polling mode (local coherent cache vs "
                "processor LLC)",
                "mode           low-load p50(us)   saturation Mrps");

    for (unsigned i = 0; i < 3; ++i) {
        std::printf("%-14s %16.2f %17.2f\n", modeName(kModes[i]),
                    results[i].lowload_p50, results[i].peak_mrps);
        ctx.point()
            .tag("mode", modeName(kModes[i]))
            .value("lowload_p50_us", results[i].lowload_p50)
            .value("peak_mrps", results[i].peak_mrps);
    }

    const ModePoint &local = results[0];
    const ModePoint &llc = results[1];
    const ModePoint &dyn = results[2];

    ctx.check("local-cache polling wins at light load (latency)",
              local.lowload_p50 < llc.lowload_p50);
    ctx.check("LLC polling wins at saturation (CPU efficiency)",
              llc.peak_mrps > local.peak_mrps * 1.02);
    ctx.check("dynamic switch ~ best of both: latency",
              dyn.lowload_p50 < llc.lowload_p50 + 0.15);
    ctx.check("dynamic switch ~ best of both: throughput",
              dyn.peak_mrps > 0.97 * llc.peak_mrps);

    ctx.anchor("dynamic_vs_llc_peak_ratio", 1.0,
               dyn.peak_mrps / llc.peak_mrps, 0.10);
}

} // namespace

DAGGER_BENCH_MAIN("abl_polling_mode", run)
