/**
 * @file
 * The repository benchmark: one command, three workloads, end-to-end
 * and per-layer metrics of the Dagger simulator.  See README.md.
 *
 *   perfbench --workload echo_small|echo_bulk|flight_storm --seed N
 *             --seconds S --trace 0|1 [--spans PATH]
 *
 * The run repeats the workload ("reps") until S host seconds have
 * passed.  Every rep must reproduce the same simulated digest.  With
 * --trace 1 the reps alternate untraced and traced; the traced reps
 * record spans, which give the host-time per-layer values and the
 * tracing overhead.  The last line of standard output is one JSON
 * object; the lines before it are the same results for people.
 */

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench.hh"

#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#error "perfbench measures optimized builds without sanitizers only"
#endif

namespace {

using namespace perfbench;

struct Workload
{
    const char *name;
    Rep (*run)(std::uint64_t seed, SpanLog &log);
};

constexpr Workload kWorkloads[] = {
    {"echo_small", &runEchoSmall},
    {"echo_bulk", &runEchoBulk},
    {"flight_storm", &runFlightStorm},
};

/** The end-to-end metrics, in reporting order, with units. */
constexpr std::pair<const char *, const char *> kEndToEnd[] = {
    {"host_req_per_s", "req/s"}, {"setup_s", "s"},
    {"peak_rss_mb", "MB"},       {"sim_mrps", "Mrps"},
    {"sim_p50_us", "us"},        {"sim_p99_us", "us"},
    {"sim_p999_us", "us"},       {"sim_ok_frac", "ratio"},
};

/** Unit of a per-layer metric, from its name. */
const char *
unitOf(std::string_view name)
{
    if (name.ends_with("_us"))
        return "us";
    if (name.ends_with("_ns") || name.find("_ns_") != std::string_view::npos)
        return "ns";
    if (name.ends_with("_krps"))
        return "Krps";
    if (name.find("bytes") != std::string_view::npos)
        return "B";
    if (name.ends_with("_frac") || name.ends_with("_rate") ||
        name.ends_with("_util") || name.ends_with("_err") ||
        name.ends_with("offered_vs_issued") || name == "trace_overhead")
        return "ratio";
    return "count";
}

std::string
number(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload echo_small|echo_bulk|"
                 "flight_storm --seed N --seconds S --trace 0|1 "
                 "[--spans PATH]\n",
                 why);
    std::exit(2);
}

/** Median of one named host value over reps. */
double
medianOf(const std::vector<Rep> &reps, const std::string &name)
{
    std::vector<double> xs;
    for (const Rep &r : reps)
        for (const auto &[n, v] : r.host)
            if (n == name)
                xs.push_back(v);
    return median(std::move(xs));
}

std::vector<double>
reqPerSec(const std::vector<Rep> &reps)
{
    std::vector<double> xs;
    for (const Rep &r : reps)
        xs.push_back(r.completed / r.runS);
    return xs;
}

} // namespace

int
main(int argc, char **argv)
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = -1;
    int trace = -1;
    std::string spans_path;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value");
        const char *val = argv[++i];
        if (arg == "--workload") {
            for (const Workload &w : kWorkloads)
                if (std::strcmp(w.name, val) == 0)
                    workload = &w;
            if (!workload)
                usage("unknown workload");
        } else if (arg == "--seed") {
            char *end = nullptr;
            seed = std::strtoull(val, &end, 10);
            have_seed = end && *end == '\0' && *val != '\0';
        } else if (arg == "--seconds") {
            seconds = std::atof(val);
        } else if (arg == "--trace") {
            trace = std::string_view(val) == "1"   ? 1
                : std::string_view(val) == "0" ? 0
                                               : -1;
        } else if (arg == "--spans") {
            spans_path = val;
        } else {
            usage("unknown argument");
        }
    }
    if (!workload || !have_seed || seconds <= 0 || trace < 0)
        usage("--workload, --seed, --seconds and --trace are required");

    // Reps until the time is spent; a traced run alternates untraced
    // and traced reps and needs at least one of each.
    SpanLog off, on;
    std::vector<Rep> plain, traced;
    const std::uint64_t start = hostNs();
    const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
    for (unsigned i = 0;; ++i) {
        const bool traced_rep = trace == 1 && i % 2 == 1;
        if (traced_rep) {
            on.reset(true, 1u << 20);
            Rep r = workload->run(seed, on);
            spanValues(r.host, on);
            traced.push_back(std::move(r));
        } else {
            plain.push_back(workload->run(seed, off));
        }
        if (hostNs() - start >= budget && (trace == 0 || !traced.empty()))
            break;
    }
    const double wall = static_cast<double>(hostNs() - start) * 1e-9;

    // Correctness: every check of every rep, and one simulated digest.
    const Rep &first = plain.front();
    std::uint64_t attempted = 0, failed = 0;
    std::map<std::string, unsigned> failures;
    for (const std::vector<Rep> *set : {&plain, &traced})
        for (const Rep &r : *set) {
            attempted += r.attempted;
            failed += r.failed;
            for (const std::string &f : r.failedChecks)
                ++failures[f];
            if (r.digest != first.digest)
                ++failures["simulated digest differs between reps"];
        }

    std::map<std::string, double> e2e;
    e2e["host_req_per_s"] = median(reqPerSec(plain));
    std::vector<double> setups;
    for (const Rep &r : plain)
        setups.push_back(r.setupS);
    e2e["setup_s"] = median(setups);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    e2e["peak_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;
    for (const auto &[name, v] : first.sim)
        if (name.find('.') == std::string::npos)
            e2e[name] = v;

    // Per layer: simulated values, then host medians.
    Values layer;
    for (const auto &[name, v] : first.sim)
        if (name.find('.') != std::string::npos)
            layer.emplace_back(name, v);
    for (const auto &[name, v] : first.host)
        layer.emplace_back(name, medianOf(plain, name));
    if (trace == 1) {
        for (const auto &[name, v] : traced.front().host)
            if (std::find_if(layer.begin(), layer.end(), [&](auto &e) {
                    return e.first == name;
                }) == layer.end())
                layer.emplace_back(name, medianOf(traced, name));
        layer.emplace_back("trace_overhead",
                           1.0 - median(reqPerSec(traced)) /
                               e2e["host_req_per_s"]);
    }

    std::printf("perfbench: workload %s, seed %llu, trace %d, build %s, "
                "%zu untraced + %zu traced reps in %.1f s\n",
                workload->name, static_cast<unsigned long long>(seed), trace,
                PERFBENCH_BUILD_TYPE, plain.size(), traced.size(), wall);
    for (const std::string &note : first.notes)
        std::printf("%s\n", note.c_str());
    for (const std::vector<Rep> *set : {&plain, &traced})
        for (const Rep &r : *set)
            std::printf("  %s rep: setup %.4f s, run %.4f s, %.1f req/s\n",
                        set == &plain ? "untraced" : "traced", r.setupS,
                        r.runS, r.completed / r.runS);
    std::printf("end-to-end (host: median over untraced reps):\n");
    for (const auto &[name, unit] : kEndToEnd)
        std::printf("  %-22s %16s %s\n", name, number(e2e[name]).c_str(),
                    unit);
    for (const auto &[name, v] : first.sim) {
        if (!std::string_view(name).starts_with("e2e."))
            continue;
        const std::string shown = name.substr(4);
        std::printf("  %-22s %16s %s\n", shown.c_str(),
                    v == kNotApplicable ? "n/a" : number(v).c_str(),
                    unitOf(shown));
    }
    if (trace == 1) {
        std::printf("per-layer (-1 = not applicable to this workload):\n");
        for (const auto &[name, v] : layer)
            std::printf("  %-30s %16s %s\n", name.c_str(), number(v).c_str(),
                        unitOf(name));
        if (!spans_path.empty()) {
            if (on.write(spans_path))
                std::printf("spans: %zu of the last traced rep in %s\n",
                            on.spans().size(), spans_path.c_str());
            else
                ++failures["span output written"];
        }
    }
    std::printf("checks: %llu per rep, %zu distinct failures\n",
                static_cast<unsigned long long>(first.checksRun),
                failures.size());
    for (const auto &[what, n] : failures)
        std::printf("  FAILED (%u reps): %s\n", n, what.c_str());
    const bool correct = failures.empty();
    std::printf("sim_digest %016llx\n",
                static_cast<unsigned long long>(first.digest));

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool comma = false;
    auto emit = [&](const std::string &name, double v, const char *unit) {
        json += comma ? ", " : "";
        comma = true;
        json += "\"" + name + "\": {\"value\": " + number(v) +
            ", \"unit\": \"" + unit + "\"}";
    };
    if (trace == 0)
        for (const auto &[name, unit] : kEndToEnd)
            emit(name, e2e[name], unit);
    else
        for (const auto &[name, v] : layer)
            emit(name, v, unitOf(name));
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}
