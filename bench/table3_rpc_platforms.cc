/**
 * @file
 * Reproduces Table 3: median round-trip time and single-core RPC
 * throughput of Dagger vs IX, FaSST, eRPC, and NetDIMM.
 *
 * Each baseline runs as a calibrated cost-model point inside the same
 * DES harness (the paper likewise quotes those systems' published
 * numbers rather than re-running their testbeds).  Dagger runs its
 * full simulated stack.
 */

#include <cstdio>
#include <functional>
#include <vector>

#include "baseline/soft_rpc_node.hh"
#include "baseline/soft_stack.hh"
#include "bench/harness.hh"

namespace {

using namespace dagger;
using namespace dagger::bench;

/** Echo over a modeled software stack: one client core, one server. */
Point
runBaseline(baseline::SoftStack stack)
{
    sim::EventQueue eq;
    rpc::CpuSet cpus(eq, 2);
    auto params = baseline::paramsFor(stack);
    baseline::SoftRpcNode client(eq, params, cpus.core(0).thread(0));
    baseline::SoftRpcNode server(eq, params, cpus.core(1).thread(0));
    server.setHandler([](const baseline::Payload &req,
                         baseline::SoftRpcNode::Responder respond) {
        respond(baseline::Payload(req), sim::nsToTicks(30));
    });

    sim::Histogram rtt;
    std::uint64_t done = 0;
    // Closed loop, window 24.
    struct Driver
    {
        baseline::SoftRpcNode *client;
        baseline::SoftRpcNode *server;
        sim::Histogram *rtt;
        std::uint64_t *done;
        void
        fire()
        {
            client->call(*server, baseline::Payload(64),
                         [this](const baseline::Payload &, sim::Tick t) {
                             rtt->record(t);
                             ++*done;
                             fire();
                         });
        }
    };
    std::vector<std::unique_ptr<Driver>> drivers;
    for (int w = 0; w < 24; ++w) {
        auto d = std::make_unique<Driver>();
        d->client = &client;
        d->server = &server;
        d->rtt = &rtt;
        d->done = &done;
        d->fire();
        drivers.push_back(std::move(d));
    }
    eq.runFor(sim::msToTicks(2));
    const std::uint64_t d0 = done;
    rtt.reset();
    eq.runFor(sim::msToTicks(10));

    // RTT under light load for the latency figure (Table 3 reports
    // unloaded median RTT).
    sim::EventQueue eq2;
    rpc::CpuSet cpus2(eq2, 2);
    baseline::SoftRpcNode c2(eq2, params, cpus2.core(0).thread(0));
    baseline::SoftRpcNode s2(eq2, params, cpus2.core(1).thread(0));
    s2.setHandler([](const baseline::Payload &req,
                     baseline::SoftRpcNode::Responder respond) {
        respond(baseline::Payload(req), sim::nsToTicks(30));
    });
    sim::Histogram rtt2;
    for (int i = 0; i < 64; ++i) {
        eq2.scheduleAt(sim::usToTicks(i * 40.0), [&] {
            c2.call(s2, baseline::Payload(64),
                    [&](const baseline::Payload &, sim::Tick t) {
                        rtt2.record(t);
                    });
        });
    }
    eq2.runUntil(sim::usToTicks(64 * 40 + 200));

    Point p;
    p.mrps = sim::ratePerSec(done - d0, sim::msToTicks(10)) / 1e6;
    p.p50_us = sim::ticksToUs(rtt2.percentile(50));
    return p;
}

/** Dagger: full stack, single core, UPI B=4 (unloaded RTT + peak). */
Point
runDagger()
{
    rpc::TestbedConfig lat_tb = echoTestbed();
    lat_tb.soft.autoBatch = true; // latency at low load without batch waits
    rpc::Testbed lat_rig(lat_tb);
    Point lat = lat_rig.offer(0.2, sim::msToTicks(1), sim::msToTicks(5));

    rpc::Testbed sat_rig(echoTestbed());
    Point sat = sat_rig.saturate(96);

    Point p;
    p.mrps = sat.mrps;
    p.p50_us = lat.p50_us;
    (void)lat;
    return p;
}

void
run(BenchContext &ctx)
{
    ctx.seed(0xbe0c4);
    ctx.config("payload_bytes", 64.0);

    struct Row
    {
        const char *name;
        const char *objects;
        const char *tor;
        double paper_rtt;
        double paper_thr; // <0: not reported
    };

    const Row rows[] = {
        {"IX", "64B msg", "N/A", 11.4, 1.5},
        {"FaSST", "48B RPC", "0.3us", 2.8, 4.8},
        {"eRPC", "32B RPC", "0.3us", 2.3, 4.96},
        {"NetDIMM", "64B msg", "0.1us", 2.2, -1},
        {"Dagger", "64B RPC", "0.3us", 2.1, 12.4},
    };

    std::vector<std::function<Point()>> scenarios = {
        [] { return runBaseline(baseline::SoftStack::DpdkIx); },
        [] { return runBaseline(baseline::SoftStack::RdmaFasst); },
        [] { return runBaseline(baseline::SoftStack::Erpc); },
        [] { return runBaseline(baseline::SoftStack::NetDimm); },
        [] { return runDagger(); },
    };
    const std::vector<Point> points =
        ctx.runner().run(std::move(scenarios));

    tableHeader("Table 3: median RTT and single-core RPC throughput vs "
                "related systems",
                "system    objects   TOR     paper: RTT(us) Thr(Mrps) | "
                "measured: RTT(us) Thr(Mrps)");

    for (unsigned i = 0; i < 5; ++i) {
        const Row &r = rows[i];
        const Point &p = points[i];
        char thr_paper[16];
        if (r.paper_thr < 0)
            std::snprintf(thr_paper, sizeof(thr_paper), "N/A");
        else
            std::snprintf(thr_paper, sizeof(thr_paper), "%.2f",
                          r.paper_thr);
        std::printf("%-9s %-9s %-6s %13.1f %9s | %16.2f %9.2f\n", r.name,
                    r.objects, r.tor, r.paper_rtt, thr_paper, p.p50_us,
                    p.mrps);
        ctx.point()
            .tag("system", r.name)
            .value("rtt_us", p.p50_us)
            .value("mrps", p.mrps)
            .value("paper_rtt_us", r.paper_rtt);
    }

    const Point &ix = points[0], &fasst = points[1], &erpc = points[2],
                &netdimm = points[3], &dagger = points[4];
    ctx.check("Dagger has the highest per-core throughput",
              dagger.mrps > fasst.mrps && dagger.mrps > erpc.mrps &&
                  dagger.mrps > ix.mrps);
    ctx.check("Dagger throughput 1.3-3.8x over eRPC/FaSST (paper)",
              dagger.mrps / erpc.mrps > 1.3 &&
                  dagger.mrps / fasst.mrps > 1.3 &&
                  dagger.mrps / fasst.mrps < 4.5);
    ctx.check("Dagger ~8x IX's per-core throughput",
              dagger.mrps / ix.mrps > 5.0);
    ctx.check("Dagger has the lowest median RTT",
              dagger.p50_us < fasst.p50_us && dagger.p50_us < erpc.p50_us &&
                  dagger.p50_us <= netdimm.p50_us + 0.4);
    ctx.check("IX pays an order of magnitude in RTT",
              ix.p50_us > 3.5 * erpc.p50_us);
    ctx.check("Dagger RTT ~2.1us (paper)",
              dagger.p50_us > 1.4 && dagger.p50_us < 2.9);

    ctx.anchor("dagger_rtt_us", 2.1, dagger.p50_us, 0.40);
    ctx.anchor("dagger_mrps", 12.4, dagger.mrps, 0.20);
}

} // namespace

DAGGER_BENCH_MAIN("table3_rpc_platforms", run)
