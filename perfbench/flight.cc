/**
 * @file
 * flight_storm: the 8-tier Flight Registration app (§5.7) under an
 * open-loop storm, over a fixed ladder of offered rates.
 *
 * Each rung builds a fresh FlightApp (Optimized threading, 1 ms
 * per-leg budgets, Flight-tier shedding past 64 queued requests) and
 * drives FlightApp::runStorm: 2^20 clients in 64 cohorts, passenger
 * retries.  Latency runs from each arrival's due tick, so the open
 * loop has no generator lateness in simulated time.  End-to-end
 * latency is reported at the 40 Krps rung, near the Table 4 knee;
 * per-layer counts cover the whole ladder.
 */

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>

#include "alloc_count.hh"
#include "perfbench.hh"
#include "svc/flight.hh"

namespace perfbench {

namespace {

using namespace dagger;

constexpr double kLadderKrps[] = {20, 30, 40, 50};
constexpr double kReportKrps = 40;     ///< rung of the latency metrics
constexpr double kPaperKrps = 20;      ///< rung compared with Fig. 15
constexpr double kPaperP50Us = 23;     ///< Fig. 15: p50 at 20 Krps
constexpr double kSloP99Us = 1000;     ///< SLO on the p99 latency
constexpr sim::Tick kDuration = sim::msToTicks(300);
constexpr sim::Tick kDrain = sim::msToTicks(50);

const char *const kTierSpans[] = {"checkin", "flight", "baggage",
                                  "passport", "checkin.wall",
                                  "passport.wall"};

struct RungResult
{
    double krps = 0;
    std::uint64_t issued = 0, completed = 0, degraded = 0;
    std::uint64_t timeouts = 0, pending = 0, shed = 0;
    double p50 = 0, p99 = 0, p999 = 0;
    std::uint64_t samples = 0;
    Values tiers; ///< svc.<span>.p50_us / p99_us
};

} // namespace

Rep
runFlightStorm(std::uint64_t seed, SpanLog &log)
{
    Rep rep;
    Snapshot total, peaks;
    std::vector<RungResult> rungs;
    double offered = 0, store_gets = 0, store_hits = 0;
    double shed = 0, window = 0;
    AllocTotals setup_allocs, run_allocs;
    unsigned index = 0;
    for (const double krps : kLadderKrps) {
        svc::FlightConfig cfg;
        cfg.model = svc::ThreadingModel::Optimized;
        cfg.staffReadRate = 500;
        cfg.checkinLegBudget = sim::msToTicks(1);
        cfg.checkinLegRetries = 2;
        cfg.flightShedQueue = 64;
        cfg.seed = mixSeed(seed ^ (0x666c69676874ull + index++));

        svc::FlightStormSpec storm;
        storm.clients = 1ull << 20;
        storm.cohorts = 64;
        storm.offeredRps = krps * 1000.0;
        storm.duration = kDuration;
        storm.drain = kDrain;
        storm.passengerRetry.timeout = sim::msToTicks(1);
        storm.passengerRetry.maxRetries = 3;
        storm.passengerRetry.backoff = 2.0;
        storm.passengerRetry.maxTimeout = sim::msToTicks(8);

        const std::uint64_t t0 = hostNs();
        const AllocTotals a0 = allocTotals();
        std::unique_ptr<svc::FlightApp> app;
        {
            ScopedSpan span(log, SpanKind::Setup);
            app = std::make_unique<svc::FlightApp>(cfg);
        }
        const std::uint64_t t1 = hostNs();
        const AllocTotals a1 = allocTotals();
        rpc::DaggerSystem &sys = app->system();
        const Snapshot before = snapshot(sys.metrics());
        {
            ScopedSpan span(log, SpanKind::Storm);
            app->runStorm(storm);
        }
        const std::uint64_t t2 = hostNs();
        const AllocTotals a2 = allocTotals();
        const Snapshot after = snapshot(sys.metrics());
        const Snapshot d = delta(before, after);
        peaks["sim.events.max_pending"] =
            std::max(peaks["sim.events.max_pending"],
                     after.at("sim.events.max_pending"));

        rpc::RpcClient &cli = app->passengerClient();
        RungResult r;
        r.krps = krps;
        r.issued = app->issued();
        r.completed = app->completed();
        r.degraded = app->completedDegraded();
        r.timeouts = app->stormTimeouts();
        r.pending = cli.pendingCalls();
        r.shed = app->flightTier().shedCalls();
        const sim::Histogram &lat = app->e2eLatency();
        r.samples = lat.count();
        r.p50 = sim::ticksToUs(interpPercentile(lat, 50));
        r.p99 = sim::ticksToUs(interpPercentile(lat, 99));
        r.p999 = sim::ticksToUs(interpPercentile(lat, 99.9));
        svc::Tracer &tracer = app->tracer();
        for (const char *name : kTierSpans) {
            const sim::Histogram &h = tracer.span(name);
            r.tiers.emplace_back(std::string("svc.") + name + ".p50_us",
                                 sim::ticksToUs(interpPercentile(h, 50)));
            r.tiers.emplace_back(std::string("svc.") + name + ".p99_us",
                                 sim::ticksToUs(interpPercentile(h, 99)));
        }

        for (const auto &[name, v] : d)
            total[name] += v;
        mixSnapshot(rep, d);
        const app::MicaStats st = app->airportStore().totalStats();
        store_gets += static_cast<double>(st.gets);
        store_hits += static_cast<double>(st.getHits);
        offered += storm.offeredRps * sim::ticksToSec(kDuration);
        shed += static_cast<double>(r.shed);
        window += static_cast<double>(kDuration + kDrain);
        rep.setupS += static_cast<double>(t1 - t0) * 1e-9;
        rep.runS += static_cast<double>(t2 - t1) * 1e-9;
        rep.completed += static_cast<double>(r.completed);
        rep.attempted += r.issued;
        rep.failed += r.issued - r.completed;
        setup_allocs.count += a1.count - a0.count;
        run_allocs.count += a2.count - a1.count;
        run_allocs.bytes += a2.bytes - a1.bytes;

        // Let retry timers and late responses play out, then audit.
        bool quiet = false;
        {
            ScopedSpan span(log, SpanKind::Drain);
            for (int i = 0; i < 1000 && !sys.eq().empty(); ++i)
                sys.runFor(sim::msToTicks(1));
            quiet = sys.eq().empty();
        }
        char who[32];
        std::snprintf(who, sizeof(who), "%.0f Krps: ", krps);
        rep.check(quiet, who + std::string("the system quiesces"));
        rep.check(app->issued() == app->completed() + app->stormTimeouts() +
                      cli.pendingCalls(),
                  who + std::string("issued == completed + timeouts + "
                                    "pending"));
        rep.check(cli.pendingCalls() == 0,
                  who + std::string("no call left pending"));
        rep.check(cli.orphanResponses() == 0,
                  who + std::string("no orphan responses"));
        const double expect = storm.offeredRps * sim::ticksToSec(kDuration);
        rep.check(std::abs(static_cast<double>(r.issued) - expect) <
                      0.05 * expect,
                  who + std::string("issued arrivals within 5% of offered"));
        checkConservation(rep, sys);
        rungs.push_back(std::move(r));
    }

    const RungResult *report = nullptr, *paper = nullptr;
    double slo_krps = 0;
    for (const RungResult &r : rungs) {
        if (r.krps == kReportKrps)
            report = &r;
        if (r.krps == kPaperKrps)
            paper = &r;
        // A backlog still queued when the drain ends counts as pending.
        if (r.p99 <= kSloP99Us && r.timeouts == 0 && r.pending == 0)
            slo_krps = std::max(slo_krps, r.krps);
        char line[160];
        std::snprintf(line, sizeof(line),
                      "  rung %2.0f Krps: issued %6" PRIu64 " done %6" PRIu64
                      " p50 %8.2f p99 %8.2f p999 %8.2f us  degraded %5" PRIu64
                      "  shed %4" PRIu64 "  timeouts %" PRIu64,
                      r.krps, r.issued, r.completed, r.p50, r.p99, r.p999,
                      r.degraded, r.shed, r.timeouts);
        rep.notes.emplace_back(line);
    }

    const double rung_fail =
        static_cast<double>(report->issued - report->completed) /
        static_cast<double>(report->issued);
    Values &v = rep.sim;
    v.emplace_back("sim_mrps", static_cast<double>(report->completed) /
                                   sim::ticksToUs(kDuration));
    v.emplace_back("sim_p50_us", report->p50);
    v.emplace_back("sim_p99_us", report->p99);
    v.emplace_back("sim_p999_us", report->p999);
    v.emplace_back("sim_ok_frac", 1.0 - rung_fail);
    v.emplace_back("e2e.sim_fail_frac", rung_fail);
    v.emplace_back("e2e.sim_degraded_frac",
                   static_cast<double>(report->degraded) /
                       static_cast<double>(report->completed));
    v.emplace_back("e2e.sim_slo_krps", slo_krps);
    v.emplace_back("e2e.sim_paper_err",
                   std::abs(paper->p50 - kPaperP50Us) / kPaperP50Us);
    v.emplace_back("e2e.sim_p999_samples",
                   static_cast<double>(report->samples));

    layerValues(v, total, peaks, rep.completed, window);
    v.emplace_back("rpc.req_path_us", kNotApplicable);
    v.emplace_back("rpc.resp_path_us", kNotApplicable);
    v.emplace_back("app.offered_vs_issued",
                   static_cast<double>(rep.attempted) / offered);
    v.emplace_back("app.airport_hit_rate",
                   store_gets == 0 ? kNotApplicable : store_hits / store_gets);
    v.emplace_back("svc.flight.shed_calls", shed);
    v.emplace_back("svc.degraded_calls",
                   sumOf(total, "svc.", ".degraded_calls"));
    for (const auto &tier : report->tiers)
        v.push_back(tier);
    for (const auto &[name, value] : v)
        rep.mix(name, value);

    rep.host.emplace_back("host.allocs_per_req",
                          static_cast<double>(run_allocs.count) /
                              rep.completed);
    rep.host.emplace_back("host.alloc_bytes_per_req",
                          static_cast<double>(run_allocs.bytes) /
                              rep.completed);
    rep.host.emplace_back("host.setup_allocs",
                          static_cast<double>(setup_allocs.count));
    rep.host.emplace_back("sim.host_ns_per_event",
                          rep.runS * 1e9 / total.at("events_executed"));
    return rep;
}

} // namespace perfbench
