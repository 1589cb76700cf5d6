/**
 * @file
 * Shared types of the repository benchmark (see README.md).
 *
 * One repetition ("rep") of a workload builds a fresh simulated
 * deployment, measures one region of it, checks its outputs, and
 * reports two kinds of values:
 *
 *  - simulated values: every sim_* end-to-end metric and every
 *    per-layer count.  They depend only on the seed, so every rep of
 *    a run must produce them bit for bit, traced or not; the digest
 *    covers them.
 *  - host values: wall time, allocations, span timings.  The run
 *    reports their median over reps.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rpc/system.hh"
#include "sim/metrics.hh"
#include "sim/stats.hh"
#include "spans.hh"

namespace perfbench {

/** Named values in a fixed order. */
using Values = std::vector<std::pair<std::string, double>>;

/** Value of a metric that does not apply to the workload. */
constexpr double kNotApplicable = -1.0;

/** Outcome of one repetition of a workload. */
struct Rep
{
    double setupS = 0;    ///< host s: build, populate, warm up
    double runS = 0;      ///< host s inside the measured region
    double completed = 0; ///< requests completed in the measured region
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Values sim;  ///< deterministic values (end-to-end and per layer)
    Values host; ///< host-side per-layer values
    /** FNV-1a over `sim` and the registry deltas of the region. */
    std::uint64_t digest = 0xcbf29ce484222325ull;
    std::uint64_t checksRun = 0;
    std::vector<std::string> failedChecks;
    /** Extra human-readable lines (a workload's detail table). */
    std::vector<std::string> notes;

    /** Record one output check; a false @p ok fails the run. */
    void
    check(bool ok, const std::string &what)
    {
        ++checksRun;
        if (!ok)
            failedChecks.push_back(what);
    }

    void mix(std::string_view name, double v);
};

/** Registry values by name: counters, gauges, histogram count/sum. */
using Snapshot = std::map<std::string, double>;

Snapshot snapshot(const dagger::sim::MetricRegistry &reg);

/** Sum of every entry named `<prefix>...<suffix>`. */
double sumOf(const Snapshot &s, std::string_view prefix,
             std::string_view suffix);

/** after - before, entry by entry (entries missing before count 0). */
Snapshot delta(const Snapshot &before, const Snapshot &after);

/**
 * Per-layer values of the sim, ic, nic, net, proto and rpc layers
 * from the registry delta @p d of a measured region lasting
 * @p windowTicks simulated ticks, per @p reqs completed requests.
 * @p after supplies the high-water marks.
 */
void layerValues(Values &out, const Snapshot &d, const Snapshot &after,
                 double reqs, double windowTicks);

/** Fold every entry of @p d into the rep's digest. */
void mixSnapshot(Rep &rep, const Snapshot &d);

/**
 * Conservation checks on a quiesced system (no event pending, so no
 * frame or RPC is in flight): per TX ring, pushed == popped + still
 * pending and pending <= used <= capacity; over all NICs, RPCs sent ==
 * RPCs received + dropped (NIC drops and ToR drops).
 */
void checkConservation(Rep &rep, dagger::rpc::DaggerSystem &sys);

/** Exact percentile (1-based ceiling rank) of @p samples; sorts them. */
std::uint64_t exactPercentile(std::vector<std::uint64_t> &samples,
                              double p);

/**
 * Percentile of a sim::Histogram interpolated linearly inside the
 * log bucket holding the rank, so that it moves smoothly with the
 * data instead of jumping between bucket midpoints.
 */
double interpPercentile(const dagger::sim::Histogram &h, double p);

/** Median of @p v (v is reordered); 0 when empty. */
double median(std::vector<double> v);

/**
 * Span statistics of one traced rep: median host ns of callAsync,
 * handler and completion self time (-1 when absent), and the share of
 * measured-region time outside those spans.
 */
void spanValues(Values &out, const SpanLog &log);

/** Workload entry points.  @p log is enabled for traced reps. */
Rep runEchoSmall(std::uint64_t seed, SpanLog &log);
Rep runEchoBulk(std::uint64_t seed, SpanLog &log);
Rep runFlightStorm(std::uint64_t seed, SpanLog &log);

/** splitmix64: derives independent seeds from the run's seed. */
std::uint64_t mixSeed(std::uint64_t x);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
