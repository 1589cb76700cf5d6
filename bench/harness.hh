/**
 * @file
 * Shared bench harness: the echo testbed configuration, scenario
 * runner, JSON export and paper-vs-measured table printing.
 *
 * Every bench binary regenerates one table or figure of the paper and
 * prints the paper's reported value next to the measured one.  The
 * absolute anchors come from a calibrated model (see DESIGN.md §4);
 * the *shape* (ordering, ratios, crossovers) is the reproduction
 * target.
 */

#ifndef DAGGER_BENCH_HARNESS_HH
#define DAGGER_BENCH_HARNESS_HH

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "app/adapters.hh"
#include "app/kvs_service.hh"
#include "app/workload.hh"
#include "rpc/testbed.hh"
#include "sim/metrics.hh"
#include "sim/rng.hh"

namespace dagger::bench {

/** One measured operating point. */
using Point = rpc::LoadPoint;

/**
 * The echo testbed behind the latency and throughput figures:
 * @p threads client threads and server flows over 512-entry rings,
 * batch 4, and a handler costing @p server_cost plus a small
 * exponential jitter, so tail percentiles behave like a real system
 * rather than a deterministic pipeline.  The jitter stream is shared
 * by the server threads of one testbed: build a fresh config for each
 * testbed instead of copying one.
 */
inline rpc::TestbedConfig
echoTestbed(unsigned threads = 1, sim::Tick server_cost = sim::nsToTicks(10))
{
    rpc::TestbedConfig cfg;
    cfg.clientFlows = threads;
    cfg.serverFlows = threads;
    cfg.txRingEntries = 512;
    cfg.rxRingEntries = 512;
    auto jitter = std::make_shared<sim::Rng>(0x7a17);
    cfg.handler = [server_cost, jitter](const proto::RpcMessage &req) {
        rpc::HandlerOutcome out;
        out.response = req.payload();
        out.cost = server_cost +
            static_cast<sim::Tick>(jitter->exponential(
                static_cast<double>(server_cost) * 0.5));
        return out;
    };
    return cfg;
}

/** Print a table header. */
inline void
tableHeader(const std::string &title, const std::string &cols)
{
    std::printf("\n=== %s ===\n%s\n", title.c_str(), cols.c_str());
}

/** Shape check helper: prints PASS/FAIL on a predicate. */
inline bool
shapeCheck(const char *what, bool ok)
{
    std::printf("shape-check: %-58s %s\n", what, ok ? "PASS" : "FAIL");
    return ok;
}

/**
 * Parallel scenario runner.
 *
 * Takes a vector of independent scenario closures — each builds and
 * runs its own DaggerSystem, which is thread-safe by isolation (no
 * mutable globals anywhere in sim/) — and executes them on a pool of
 * std::threads.  Results come back in input order, so tables printed
 * from them are bit-identical to a serial run regardless of the job
 * count.  Closures must not share mutable state with each other.
 */
class SweepRunner
{
  public:
    /** @param jobs worker threads; 0 = defaultJobs(). */
    explicit SweepRunner(unsigned jobs = 0)
        : _jobs(jobs == 0 ? defaultJobs() : jobs)
    {}

    /** DAGGER_BENCH_JOBS env override, else hardware_concurrency. */
    static unsigned
    defaultJobs()
    {
        if (const char *env = std::getenv("DAGGER_BENCH_JOBS")) {
            const long n = std::strtol(env, nullptr, 10);
            if (n >= 1)
                return static_cast<unsigned>(n);
        }
        const unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? 1 : hw;
    }

    unsigned jobs() const { return _jobs; }

    /** Run all scenarios; result i is scenarios[i]'s return value. */
    template <typename R>
    std::vector<R>
    run(std::vector<std::function<R()>> scenarios) const
    {
        std::vector<R> results(scenarios.size());
        const unsigned workers = static_cast<unsigned>(
            std::min<std::size_t>(_jobs, scenarios.size()));
        if (workers <= 1) {
            for (std::size_t i = 0; i < scenarios.size(); ++i)
                results[i] = scenarios[i]();
            return results;
        }
        std::atomic<std::size_t> next{0};
        auto worker = [&scenarios, &results, &next] {
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= scenarios.size())
                    return;
                results[i] = scenarios[i]();
            }
        };
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned t = 0; t < workers; ++t)
            pool.emplace_back(worker);
        for (auto &th : pool)
            th.join();
        return results;
    }

  private:
    unsigned _jobs;
};

/**
 * One measured operating point for the JSON export: an ordered list of
 * (key, value) fields, where a value is a number or a tag string.
 */
class BenchPoint
{
  public:
    BenchPoint &
    tag(std::string key, std::string value)
    {
        _fields.push_back(
            Field{std::move(key), 0.0, std::move(value), false});
        return *this;
    }

    BenchPoint &
    value(std::string key, double v)
    {
        _fields.push_back(Field{std::move(key), v, {}, true});
        return *this;
    }

    /** Render as a JSON object (deterministic field order/format). */
    std::string
    json() const
    {
        std::string out = "{";
        for (std::size_t i = 0; i < _fields.size(); ++i) {
            const Field &f = _fields[i];
            if (i > 0)
                out += ", ";
            out += "\"" + sim::jsonEscape(f.key) + "\": ";
            out += f.is_num ? sim::jsonNumber(f.num)
                            : "\"" + sim::jsonEscape(f.str) + "\"";
        }
        out += "}";
        return out;
    }

  private:
    struct Field
    {
        std::string key;
        double num;
        std::string str;
        bool is_num;
    };

    std::vector<Field> _fields;
};

/**
 * Shared per-binary bench state: parsed flags (--jobs/--json/--strict),
 * recorded points, shape checks and paper anchors, and the JSON
 * emitter.  Construct via benchMain() / DAGGER_BENCH_MAIN.
 */
class BenchContext
{
  public:
    BenchContext(std::string name, int argc, char **argv)
        // Host wall time only feeds the report's wall_clock_sec field,
        // never a simulated quantity.
        : _name(std::move(name)), _start(std::chrono::steady_clock::now()) // dagger-lint: allow(no-wallclock)
    {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (a == "--jobs" && i + 1 < argc) {
                _jobs = parseJobs(argv[++i]);
            } else if (a.rfind("--jobs=", 0) == 0) {
                _jobs = parseJobs(a.substr(7).c_str());
            } else if (a == "--json") {
                _jsonPath = (i + 1 < argc && argv[i + 1][0] != '-')
                    ? argv[++i]
                    : defaultJsonPath();
            } else if (a.rfind("--json=", 0) == 0) {
                _jsonPath = a.substr(7);
            } else if (a == "--strict") {
                _strict = true;
            } else if (a == "--help" || a == "-h") {
                usage(stdout);
                std::exit(0);
            } else {
                // A mistyped flag must not silently run the default
                // grid and skip the output the caller asked for.
                std::fprintf(stderr,
                             "%s: unrecognised or incomplete argument "
                             "'%s'\n",
                             _name.c_str(), a.c_str());
                usage(stderr);
                std::exit(1);
            }
        }
    }

    const std::string &name() const { return _name; }
    bool strict() const { return _strict; }
    unsigned jobs() const { return SweepRunner(_jobs).jobs(); }
    SweepRunner runner() const { return SweepRunner(_jobs); }
    bool jsonRequested() const { return !_jsonPath.empty(); }

    /** Record a config key for the JSON export. */
    void
    config(std::string key, std::string value)
    {
        _config.emplace_back(std::move(key),
                             "\"" + sim::jsonEscape(value) + "\"");
    }

    void
    config(std::string key, double value)
    {
        _config.emplace_back(std::move(key), sim::jsonNumber(value));
    }

    void seed(std::uint64_t s) { _seed = s; }

    /** Append a point; chain tag()/value() calls on the result. */
    BenchPoint &
    point()
    {
        _points.emplace_back();
        return _points.back();
    }

    /** Shape check: prints the legacy PASS/FAIL line and records it. */
    bool
    check(const char *what, bool ok)
    {
        shapeCheck(what, ok);
        _checks.emplace_back(what, ok);
        return ok;
    }

    /**
     * Record a paper anchor: ok iff |measured - paper| <= rel_tol *
     * |paper|.  Under --strict a miss turns into exit code 2.
     */
    bool
    anchor(std::string name, double paper, double measured, double rel_tol)
    {
        Anchor a;
        a.name = std::move(name);
        a.paper = paper;
        a.measured = measured;
        a.rel_tol = rel_tol;
        a.ok = paper == 0.0
            ? measured == 0.0
            : std::abs(measured - paper) <= rel_tol * std::abs(paper);
        std::printf("anchor: %-50s paper=%-10.4g measured=%-10.4g "
                    "tol=%.0f%% %s\n",
                    a.name.c_str(), paper, measured, rel_tol * 100.0,
                    a.ok ? "OK" : "MISS");
        _anchors.push_back(std::move(a));
        return _anchors.back().ok;
    }

    /** All recorded points rendered as JSON (the determinism probe). */
    std::string
    pointsJson() const
    {
        std::string out = "[";
        for (std::size_t i = 0; i < _points.size(); ++i) {
            out += i == 0 ? "\n  " : ",\n  ";
            out += _points[i].json();
        }
        out += "\n]";
        return out;
    }

    /**
     * Emit the JSON file (when requested) and compute the exit code:
     * 1 on any failed shape check, 2 on a --strict anchor miss, else 0.
     */
    int
    finish()
    {
        const double wall = std::chrono::duration<double>(
                                // dagger-lint: allow(no-wallclock)
                                std::chrono::steady_clock::now() - _start)
                                .count();
        bool checksOk = true;
        for (const auto &c : _checks)
            checksOk = checksOk && c.second;
        bool anchorsOk = true;
        for (const Anchor &a : _anchors)
            anchorsOk = anchorsOk && a.ok;
        if (!_jsonPath.empty()) {
            std::ofstream f(_jsonPath);
            if (!f) {
                std::fprintf(stderr, "cannot write %s\n",
                             _jsonPath.c_str());
                return 1;
            }
            f << renderJson(wall, checksOk, anchorsOk);
            std::printf("json: wrote %s\n", _jsonPath.c_str());
        }
        if (!checksOk)
            return 1;
        if (_strict && !anchorsOk)
            return 2;
        return 0;
    }

  private:
    struct Anchor
    {
        std::string name;
        double paper = 0;
        double measured = 0;
        double rel_tol = 0;
        bool ok = false;
    };

    static unsigned
    parseJobs(const char *s)
    {
        const long n = std::strtol(s, nullptr, 10);
        return n >= 1 ? static_cast<unsigned>(n) : 1;
    }

    std::string defaultJsonPath() const { return "BENCH_" + _name + ".json"; }

    void
    usage(std::FILE *out) const
    {
        std::fprintf(out,
                     "usage: %s [--jobs N] [--json [PATH]] [--strict]\n"
                     "  --jobs N      scenario worker threads (default: "
                     "DAGGER_BENCH_JOBS or hardware threads)\n"
                     "  --json [PATH] write results to PATH (default "
                     "%s)\n"
                     "  --strict      exit nonzero when a paper anchor "
                     "misses its tolerance\n",
                     _name.c_str(), defaultJsonPath().c_str());
    }

    std::string
    renderJson(double wall, bool checks_ok, bool anchors_ok) const
    {
        std::string out = "{\n";
        out += "\"bench\": \"" + sim::jsonEscape(_name) + "\",\n";
        out += "\"seed\": " + std::to_string(_seed) + ",\n";
        out += "\"jobs\": " + std::to_string(jobs()) + ",\n";
        out += "\"wall_clock_sec\": " + sim::jsonNumber(wall) + ",\n";
        out += "\"config\": {";
        for (std::size_t i = 0; i < _config.size(); ++i) {
            out += i == 0 ? "\n  " : ",\n  ";
            out += "\"" + sim::jsonEscape(_config[i].first)
                + "\": " + _config[i].second;
        }
        out += _config.empty() ? "},\n" : "\n},\n";
        out += "\"points\": " + pointsJson() + ",\n";
        out += "\"anchors\": [";
        for (std::size_t i = 0; i < _anchors.size(); ++i) {
            const Anchor &a = _anchors[i];
            out += i == 0 ? "\n  " : ",\n  ";
            out += "{\"name\": \"" + sim::jsonEscape(a.name)
                + "\", \"paper\": " + sim::jsonNumber(a.paper)
                + ", \"measured\": " + sim::jsonNumber(a.measured)
                + ", \"rel_tol\": " + sim::jsonNumber(a.rel_tol)
                + ", \"ok\": " + (a.ok ? "true" : "false") + "}";
        }
        out += _anchors.empty() ? "],\n" : "\n],\n";
        out += "\"checks\": [";
        for (std::size_t i = 0; i < _checks.size(); ++i) {
            out += i == 0 ? "\n  " : ",\n  ";
            out += "{\"what\": \"" + sim::jsonEscape(_checks[i].first)
                + "\", \"pass\": " + (_checks[i].second ? "true" : "false")
                + "}";
        }
        out += _checks.empty() ? "],\n" : "\n],\n";
        out += std::string("\"ok\": ")
            + (checks_ok && anchors_ok ? "true" : "false") + "\n}\n";
        return out;
    }

    std::string _name;
    std::chrono::steady_clock::time_point _start; // dagger-lint: allow(no-wallclock)
    unsigned _jobs = 0; ///< 0 = SweepRunner default
    bool _strict = false;
    std::string _jsonPath;
    std::uint64_t _seed = 0;
    std::vector<std::pair<std::string, std::string>> _config;
    std::deque<BenchPoint> _points;
    std::vector<std::pair<std::string, bool>> _checks;
    std::vector<Anchor> _anchors;
};

/** Shared bench entry point: flag parsing, run, JSON emit, exit code. */
inline int
benchMain(std::string name, int argc, char **argv,
          const std::function<void(BenchContext &)> &fn)
{
    BenchContext ctx(std::move(name), argc, argv);
    fn(ctx);
    return ctx.finish();
}

/** Define main() for a bench binary running @p fn (a BenchContext&
 * callable). */
#define DAGGER_BENCH_MAIN(benchname, fn)                                   \
    int main(int argc, char **argv)                                        \
    {                                                                      \
        return ::dagger::bench::benchMain(benchname, argc, argv, fn);      \
    }

} // namespace dagger::bench

#endif // DAGGER_BENCH_HARNESS_HH
