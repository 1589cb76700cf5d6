/**
 * @file
 * SLO-driven degradation under open-loop million-client storms
 * (extension bench; no paper figure).
 *
 * The figure benches drive closed-loop sweeps that stop offering load
 * the moment a tier backs up.  Real front-ends face *open-loop*
 * traffic: millions of independent clients keep arriving regardless
 * of backlog, which is the only regime where retry storms, load
 * shedding, and degraded-mode fan-out actually matter.  This bench
 * drives both deployed applications with app::OpenLoopGen cohort
 * actors (2^20 clients folded into 64 actors — memory stays
 * O(cohorts + in-flight)) and scores each operating point against
 * p99/p999 SLOs:
 *
 *  - Flight Registration (Optimized threading): a
 *    capacity ladder whose 50 Krps point *completes* the offered
 *    load yet violates the SLO (the knee a closed-loop drop-rate
 *    criterion never sees), a diurnal curve, an overload point where
 *    the Flight tier sheds its request backlog, and fault rows
 *    (seeded 2% loss, a 10% lossy Flight link, a 2 ms blackout)
 *    riding the per-tier timeout budgets — exhausted fan-out legs
 *    complete *degraded* instead of hanging.
 *  - Social Network (kernel-TCP stack, §3): a QPS ladder with an
 *    admission cap — past it, compose posts shed their Media leg.
 *
 * Every row checks exactly-once accounting (issued == completed +
 * timeouts + still-pending) and zero orphan responses.  All
 * randomness is seeded; the JSON is byte-identical across --jobs
 * (ctest: test_determinism_cross_jobs_slo_storm).
 */

#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench/harness.hh"
#include "net/fault_injector.hh"
#include "svc/flight.hh"
#include "svc/socialnet.hh"

namespace {

using namespace dagger;
using namespace dagger::bench;

// SLO targets (per-service; the degraded paths keep the tail bounded
// by the 1 ms leg budget, so a met SLO means the budgets held).
constexpr double kFlightSloP99Us = 1000.0;
constexpr double kFlightSloP999Us = 5000.0;
constexpr double kSnSloP99Us = 15000.0;
constexpr double kSnSloP999Us = 30000.0;

// Storm population and windows: saturation physics (queue excursions,
// the Social Network admission cap) takes tens of simulated
// milliseconds to build.
constexpr std::uint64_t kClients = 1ull << 20;
constexpr sim::Tick kFlightDuration = sim::msToTicks(80);
constexpr sim::Tick kFlightDrain = sim::msToTicks(40);
constexpr sim::Tick kSnDuration = sim::msToTicks(200);
constexpr sim::Tick kSnDrain = sim::msToTicks(50);

struct FlightRow
{
    const char *scenario;
    double offeredKrps;
    unsigned legRetries = 2;   ///< check-in leg resends within 1 ms
    double lossBothDirs = 0;   ///< toward check-in and passenger
    double lossToFlight = 0;   ///< toward the Flight tier only
    sim::Tick flapLen = 0;     ///< blackout of the check-in link
    bool diurnal = false;
    std::uint64_t seed = 0x510;
};

struct SnRow
{
    const char *scenario;
    double qps;
};

struct RowResult
{
    const char *service;
    const char *scenario;
    double offered_rps = 0;
    double achieved_rps = 0;
    double p50_us = 0, p99_us = 0, p999_us = 0;
    double degraded_frac = 0;
    double shed = 0;
    double timeouts = 0;
    double retries = 0;
    double spurious_arms = 0;
    double resend_drops = 0;
    double orphans = 0;
    bool slo = false;
    bool exactly_once = false;
};

RowResult
runFlightRow(const FlightRow &row)
{
    svc::FlightConfig cfg;
    cfg.model = svc::ThreadingModel::Optimized;
    cfg.staffReadRate = 500;
    // Reliability stack under test: each check-in fan-out leg gets a
    // 1 ms budget; the Flight tier sheds its RX backlog past 64.
    cfg.checkinLegBudget = sim::msToTicks(1);
    cfg.checkinLegRetries = row.legRetries;
    cfg.flightShedQueue = 64;
    svc::FlightApp app(cfg);
    rpc::DaggerSystem &sys = app.system();

    // Seeded fault injectors sit on the ToR ports of the targeted
    // nodes; they must outlive the run.
    std::vector<std::unique_ptr<net::FaultInjector>> faults;
    auto inject = [&](rpc::DaggerNode &node, double drop_p,
                      sim::Tick flap_len, std::uint64_t seed) {
        net::FaultSpec spec;
        spec.dropP = drop_p;
        spec.seed = seed;
        if (flap_len > 0)
            spec.flaps.push_back(
                {sim::msToTicks(5), sim::msToTicks(5) + flap_len});
        faults.push_back(
            std::make_unique<net::FaultInjector>(sys.eq(), spec));
        faults.back()->install(sys.tor().attach(node.id()));
    };
    if (row.lossBothDirs > 0 || row.flapLen > 0) {
        inject(app.checkinTier().node(), row.lossBothDirs, row.flapLen,
               row.seed * 2 + 1);
        inject(app.passengerClient().node(), row.lossBothDirs, 0,
               row.seed * 2 + 2);
    }
    if (row.lossToFlight > 0)
        inject(app.flightTier().node(), row.lossToFlight, 0,
               row.seed * 2 + 3);

    svc::FlightStormSpec storm;
    storm.clients = kClients;
    storm.cohorts = 64;
    storm.offeredRps = row.offeredKrps * 1000.0;
    storm.duration = kFlightDuration;
    storm.drain = kFlightDrain;
    if (row.diurnal) {
        storm.diurnal.period = storm.duration;
        storm.diurnal.low = 0.25;
        storm.diurnal.high = 1.0;
    }
    // Passenger-side budget: 1 ms first timeout, doubling to an 8 ms
    // total — enough to ride out the scripted 2 ms blackout.
    storm.passengerRetry.timeout = sim::msToTicks(1);
    storm.passengerRetry.maxRetries = 3;
    storm.passengerRetry.backoff = 2.0;
    storm.passengerRetry.maxTimeout = sim::msToTicks(8);
    app.runStorm(storm);

    rpc::RpcClient &cli = app.passengerClient();
    RowResult r;
    r.service = "flight";
    r.scenario = row.scenario;
    r.offered_rps = storm.offeredRps;
    r.achieved_rps = static_cast<double>(app.completed()) /
                     sim::ticksToSec(storm.duration);
    r.p50_us = sim::ticksToUs(app.e2eLatency().percentile(50));
    r.p99_us = sim::ticksToUs(app.e2eLatency().percentile(99));
    r.p999_us = sim::ticksToUs(app.e2eLatency().percentile(99.9));
    r.degraded_frac = app.completed() == 0
        ? 0.0
        : static_cast<double>(app.completedDegraded()) /
            static_cast<double>(app.completed());
    r.shed = static_cast<double>(app.flightTier().shedCalls());
    r.timeouts = static_cast<double>(app.stormTimeouts());
    r.retries = static_cast<double>(cli.retriesSent());
    r.spurious_arms = static_cast<double>(cli.spuriousArms());
    r.resend_drops = static_cast<double>(cli.resendDrops());
    r.orphans = static_cast<double>(cli.orphanResponses());
    r.slo = r.p99_us <= kFlightSloP99Us && r.p999_us <= kFlightSloP999Us;
    r.exactly_once = app.issued() ==
        app.completed() + app.stormTimeouts() + cli.pendingCalls();
    return r;
}

RowResult
runSnRow(const SnRow &row)
{
    svc::SocialNetConfig cfg;
    svc::SocialNet sn(cfg);

    svc::SnStormSpec storm;
    storm.clients = kClients;
    storm.cohorts = 64;
    storm.offeredQps = row.qps;
    storm.duration = kSnDuration;
    storm.drain = kSnDrain;
    // Admission cap: past 24 in-flight requests compose posts shed
    // their Media leg (degraded mode) instead of queueing it too.
    storm.maxInflight = 24;
    sn.runStorm(storm);

    RowResult r;
    r.service = "socialnet";
    r.scenario = row.scenario;
    r.offered_rps = row.qps;
    r.achieved_rps = static_cast<double>(sn.completed()) /
                     sim::ticksToSec(storm.duration);
    r.p50_us = sim::ticksToUs(sn.e2eLatency().percentile(50));
    r.p99_us = sim::ticksToUs(sn.e2eLatency().percentile(99));
    r.p999_us = sim::ticksToUs(sn.e2eLatency().percentile(99.9));
    r.degraded_frac = sn.completed() == 0
        ? 0.0
        : static_cast<double>(sn.degradedServed()) /
            static_cast<double>(sn.completed());
    r.slo = r.p99_us <= kSnSloP99Us && r.p999_us <= kSnSloP999Us;
    // The software stack has no drop points: every issued request is
    // either done or still queued somewhere in the model.
    r.exactly_once = sn.issued() == sn.completed() + sn.inflight();
    return r;
}

void
run(BenchContext &ctx)
{
    ctx.seed(0x510c4);
    ctx.config("clients", static_cast<double>(kClients));
    ctx.config("cohorts", 64.0);
    ctx.config("flight_slo_p99_us", kFlightSloP99Us);
    ctx.config("flight_slo_p999_us", kFlightSloP999Us);
    ctx.config("socialnet_slo_p99_us", kSnSloP99Us);
    ctx.config("socialnet_slo_p999_us", kSnSloP999Us);

    const std::vector<FlightRow> flight_rows = {
        {"capacity-10k", 10.0},
        {"capacity-20k", 20.0},
        {"capacity-30k", 30.0},
        {"capacity-40k", 40.0},
        {"capacity-50k", 50.0},
        {"overload-60k", 60.0},
        {"diurnal-40k", 40.0, 2, 0, 0, 0, true},
        {"loss-2%", 20.0, 2, 0.02},
        {"flight-loss-10%", 20.0, 1, 0, 0.10},
        {"flap-2ms", 20.0, 2, 0, 0, sim::msToTicks(2)},
    };
    const std::vector<SnRow> sn_rows = {
        {"qps-300", 300.0},
        {"qps-600", 600.0},
        {"qps-900", 900.0},
        {"qps-1200", 1200.0},
    };

    std::vector<std::function<RowResult()>> scenarios;
    for (const FlightRow &row : flight_rows)
        scenarios.push_back([row] { return runFlightRow(row); });
    for (const SnRow &row : sn_rows)
        scenarios.push_back([row] { return runSnRow(row); });
    const std::vector<RowResult> rows =
        ctx.runner().run(std::move(scenarios));

    tableHeader("SLO storm: open-loop degradation, both services",
                "service    scenario         offered   achieved    p50(us) "
                "  p99(us)  p999(us)  dgrd%  shed  t/o  SLO");

    for (const RowResult &r : rows) {
        std::printf("%-10s %-16s %8.0f %10.0f %10.1f %9.1f %9.1f %6.2f "
                    "%5.0f %4.0f  %s\n",
                    r.service, r.scenario, r.offered_rps, r.achieved_rps,
                    r.p50_us, r.p99_us, r.p999_us, 100.0 * r.degraded_frac,
                    r.shed, r.timeouts, r.slo ? "met" : "VIOLATED");
        ctx.point()
            .tag("service", r.service)
            .tag("scenario", r.scenario)
            .value("offered_rps", r.offered_rps)
            .value("achieved_rps", r.achieved_rps)
            .value("p50_us", r.p50_us)
            .value("p99_us", r.p99_us)
            .value("p999_us", r.p999_us)
            .value("degraded_frac", r.degraded_frac)
            .value("shed", r.shed)
            .value("timeouts", r.timeouts)
            .value("retries", r.retries)
            .value("spurious_arms", r.spurious_arms)
            .value("resend_drops", r.resend_drops)
            .value("orphans", r.orphans)
            .value("slo_met", r.slo ? 1.0 : 0.0);
    }

    // Row lookup by scenario name (grid order is fixed).
    auto find = [&rows](const char *scenario) -> const RowResult & {
        for (const RowResult &r : rows)
            if (std::string_view(r.scenario) == scenario)
                return r;
        dagger_assert(false, "missing scenario ", scenario);
        return rows.front();
    };

    bool exact = true, no_orphans = true;
    for (const RowResult &r : rows) {
        exact = exact && r.exactly_once;
        no_orphans = no_orphans && r.orphans == 0;
    }
    ctx.check("exactly-once accounting holds on every row "
              "(issued == completed + timeouts + pending)",
              exact);
    ctx.check("no orphan responses anywhere, loss and flap included",
              no_orphans);
    // The SLO knee sits below the ~50 Krps throughput knee: at 50
    // Krps the Optimized model still *completes* the offered load
    // (table4's capacity point), but worker-pool queueing excursions
    // blow through the 1 ms leg budgets and the p99 SLO — the
    // open-loop distinction a closed-loop drop-rate criterion never
    // sees.
    ctx.check("flight meets its SLO at nominal load (10-20 Krps)",
              find("capacity-10k").slo && find("capacity-20k").slo);
    ctx.check("the SLO knee sits below the throughput knee: at "
              "capacity the load completes but the SLO is gone",
              !find("capacity-50k").slo &&
                  find("capacity-50k").achieved_rps >
                      0.95 * find("capacity-50k").offered_rps);
    ctx.check("past the knee the SLO breaks and the Flight tier sheds",
              !find("overload-60k").slo && find("overload-60k").shed > 0);
    ctx.check("lossy Flight link degrades legs instead of hanging them",
              find("flight-loss-10%").degraded_frac > 0);
    ctx.check("2% seeded loss exercises the retry stack",
              find("loss-2%").retries > 0);
    ctx.check("passenger retries ride out the 2ms blackout",
              find("flap-2ms").retries > 0 &&
                  find("flap-2ms").achieved_rps >
                      0.9 * find("capacity-20k").achieved_rps);
    ctx.check("socialnet meets its SLO at nominal load",
              find("qps-300").slo && find("qps-600").slo);
    ctx.check("socialnet overload trips the admission cap into "
              "degraded compose",
              find("qps-1200").degraded_frac > 0);

    ctx.anchor("flight_capacity_p99_us", 25.0,
               find("capacity-20k").p99_us, 1.0);
}

} // namespace

DAGGER_BENCH_MAIN("slo_storm", run)
