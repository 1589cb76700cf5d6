/**
 * @file
 * Host clock and in-memory span log of the benchmark.
 *
 * Every host-clock read of the benchmark lives in this file.  The
 * simulator itself must never read the host clock (its results are
 * simulated time only); the benchmark reads it around its calls into
 * the simulator.
 *
 * A span is one timed region: a name, a host start and end, the span
 * that was open when it began (its parent), and the request id it
 * serves (0 for regions that serve no single request).  Spans are
 * kept in memory and written out once, when the run ends.  A disabled
 * log records nothing and reads no clock.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic host time in nanoseconds. */
inline std::uint64_t
hostNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Span names; the index is what a Span stores. */
enum class SpanKind : std::uint8_t {
    Setup,    ///< build the system, populate stores, warm up
    Run,      ///< one DaggerSystem::runFor() call being measured
    Storm,    ///< one FlightApp::runStorm() call
    Issue,    ///< one RpcClient::callAsync()
    Handler,  ///< the benchmark's echo handler body
    Complete, ///< the benchmark's completion callback
    Drain,    ///< unmeasured run-out after the measured region
};

inline const char *
spanName(SpanKind k)
{
    switch (k) {
    case SpanKind::Setup: return "setup";
    case SpanKind::Run: return "runFor";
    case SpanKind::Storm: return "runStorm";
    case SpanKind::Issue: return "callAsync";
    case SpanKind::Handler: return "handler";
    case SpanKind::Complete: return "complete";
    case SpanKind::Drain: return "drain";
    }
    return "?";
}

struct Span
{
    std::uint64_t start = 0; ///< host ns
    std::uint64_t end = 0;   ///< host ns
    std::uint64_t req = 0;   ///< request id, 0 = none
    std::int32_t parent = -1;
    SpanKind kind = SpanKind::Setup;
};

/** Nested spans of one single-threaded run. */
class SpanLog
{
  public:
    /** Start a fresh log; @p reserve spans are preallocated. */
    void
    reset(bool enabled, std::size_t reserve = 0)
    {
        _enabled = enabled;
        _spans.clear();
        _open = -1;
        if (enabled)
            _spans.reserve(reserve);
    }

    std::int32_t
    open(SpanKind kind, std::uint64_t req = 0)
    {
        if (!_enabled)
            return -1;
        Span s;
        s.kind = kind;
        s.req = req;
        s.parent = _open;
        _spans.push_back(s);
        _open = static_cast<std::int32_t>(_spans.size() - 1);
        _spans.back().start = hostNs();
        return _open;
    }

    void
    close(std::int32_t id)
    {
        if (id < 0)
            return;
        Span &s = _spans[static_cast<std::size_t>(id)];
        s.end = hostNs();
        _open = s.parent;
    }

    const std::vector<Span> &spans() const { return _spans; }

    /**
     * Write the spans as tab-separated text, one span a line:
     * id, name, start_ns, end_ns, parent id (-1 = root), request id.
     * Times are relative to the first span's start.
     */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        const std::uint64_t t0 = _spans.empty() ? 0 : _spans.front().start;
        std::fprintf(f, "id\tname\tstart_ns\tend_ns\tparent\treq\n");
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &s = _spans[i];
            std::fprintf(f, "%zu\t%s\t%llu\t%llu\t%d\t%llu\n", i,
                         spanName(s.kind),
                         static_cast<unsigned long long>(s.start - t0),
                         static_cast<unsigned long long>(s.end - t0),
                         s.parent, static_cast<unsigned long long>(s.req));
        }
        return std::fclose(f) == 0;
    }

  private:
    bool _enabled = false;
    std::vector<Span> _spans;
    std::int32_t _open = -1;
};

/** Scoped span: opens on construction, closes on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, SpanKind kind, std::uint64_t req = 0)
        : _log(log), _id(log.open(kind, req))
    {}
    ~ScopedSpan() { _log.close(_id); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &_log;
    std::int32_t _id;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
