/**
 * @file
 * Reproduces Fig. 11 (right): multi-thread scaling of 64 B requests.
 *
 * Paper anchors: end-to-end RPC throughput scales linearly up to 4
 * threads (2 physical cores) and flattens at ~42 Mrps — "the current
 * bottleneck is the implementation of the UPI end-point on the FPGA
 * in the blue region", i.e., 84 Mrps of messages as seen by the
 * processor.  Raw idle UPI reads scale to ~80 Mrps with 7 threads and
 * go flat when the 8th is added.
 */

#include <cstdio>
#include <functional>
#include <vector>

#include "bench/harness.hh"
#include "ic/cci_fabric.hh"
#include "rpc/cpu.hh"

namespace {

using namespace dagger;
using namespace dagger::bench;

/** Raw idle UPI reads: each thread issues reads in a closed loop. */
double
rawUpiMrps(unsigned threads)
{
    sim::EventQueue eq;
    ic::CciFabric fabric(eq, ic::IfaceKind::Upi, 1);
    ic::CciPort &port = fabric.port(0);
    // Raw-read threads get their own physical cores (the 12-core
    // Xeon has room; the paper scales linearly to 7 threads).
    rpc::CpuSet cpus(eq, threads);
    std::uint64_t completed = 0;

    // Per-read CPU cost of issuing an idle read (load + check).
    const sim::Tick issue_cost = sim::nsToTicks(87);

    struct Driver
    {
        ic::CciPort *port;
        rpc::HwThread *thread;
        std::uint64_t *completed;
        sim::Tick issue_cost;

        void
        fire()
        {
            thread->execute(issue_cost, [this] {
                port->rawRead([this] {
                    ++*completed;
                });
                fire();
            });
        }
    };

    std::vector<std::unique_ptr<Driver>> drivers;
    for (unsigned t = 0; t < threads; ++t) {
        auto d = std::make_unique<Driver>();
        d->port = &port;
        d->thread = &cpus.core(t).thread(0);
        d->completed = &completed;
        d->issue_cost = issue_cost;
        d->fire();
        drivers.push_back(std::move(d));
    }
    eq.runFor(sim::msToTicks(2));
    const std::uint64_t c0 = completed;
    eq.runFor(sim::msToTicks(5));
    return sim::ratePerSec(completed - c0, sim::msToTicks(5)) / 1e6;
}

struct Row
{
    double e2e = 0;
    double raw = 0;
};

void
run(BenchContext &ctx)
{
    ctx.seed(0xbe0c4);
    ctx.config("batch", 4.0);
    ctx.config("payload_bytes", 48.0);

    std::vector<std::function<Row()>> scenarios;
    for (unsigned t = 1; t <= 8; ++t)
        scenarios.push_back([t] {
            rpc::Testbed rig(echoTestbed(t));
            const Point p = rig.saturate(/*window=*/96,
                                         sim::msToTicks(2),
                                         sim::msToTicks(6));
            Row r;
            r.e2e = p.mrps;
            r.raw = rawUpiMrps(t);
            return r;
        });
    const std::vector<Row> rows = ctx.runner().run(std::move(scenarios));

    tableHeader("Fig. 11 (right): thread scaling, 64B requests",
                "threads  e2e RPC (Mrps)   raw UPI reads (Mrps)");

    std::vector<double> e2e, raw;
    for (unsigned t = 1; t <= 8; ++t) {
        const Row &r = rows[t - 1];
        e2e.push_back(r.e2e);
        raw.push_back(r.raw);
        std::printf("%7u %15.1f %22.1f\n", t, r.e2e, r.raw);
        ctx.point()
            .value("threads", t)
            .value("e2e_mrps", r.e2e)
            .value("raw_upi_mrps", r.raw);
    }

    ctx.check("e2e scales up through 4 threads", e2e[3] > 2.5 * e2e[0]);
    ctx.check("e2e flattens near 42 Mrps (UPI endpoint bound)",
              e2e[7] < 1.15 * e2e[3] && e2e[7] > 30 && e2e[7] < 52);
    ctx.check("raw UPI reads scale further than e2e",
              raw[6] > 1.4 * e2e[7]);
    ctx.check("raw reads flatten near 80 Mrps by 7-8 threads",
              raw[7] < 1.1 * raw[6] && raw[6] > 65 && raw[6] < 95);
    ctx.check("1->2 threads scales near-linearly (paper: linear to 4)",
              e2e[1] > 1.8 * e2e[0]);

    ctx.anchor("e2e_flat_mrps", 42.0, e2e[7], 0.30);
    ctx.anchor("raw_upi_7t_mrps", 80.0, raw[6], 0.30);
}

} // namespace

DAGGER_BENCH_MAIN("fig11_thread_scaling", run)
