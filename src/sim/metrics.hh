/**
 * @file
 * MetricRegistry: the one observability spine of the simulator.
 *
 * The paper's Packet Monitor "collects various networking statistics"
 * (§4.1); in this codebase every layer (fabric, switch, NIC, caches,
 * rings) keeps Counter / Histogram members.  Instead of each report
 * hand-traversing those members, components register them here at
 * construction under hierarchical dotted names, e.g.
 *
 *   node0.nic.rpcs_out
 *   node0.nic.conn_cache.hit_rate
 *   node1.flow0.rx.drops
 *   fabric.to_nic.utilization
 *
 * and reports become generic registry walks.  A metric is a name and a
 * value; renderJson() exports every one of them, in registration order.
 *
 * The registry stores non-owning pointers / closures; the owner of the
 * registered objects (normally rpc::DaggerSystem) must outlive it.
 */

#ifndef DAGGER_SIM_METRICS_HH
#define DAGGER_SIM_METRICS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/stats.hh"

namespace dagger::sim {

/** A flat, ordered collection of named metrics. */
class MetricRegistry
{
  public:
    enum class Kind : std::uint8_t {
        Counter,   ///< monotonically increasing sim::Counter
        IntGauge,  ///< computed integral value
        Gauge,     ///< computed floating-point value
        Histogram, ///< sim::Histogram
        Section,   ///< no value; nothing registers one (kept for switches)
    };

    struct Entry
    {
        Kind kind;
        std::string name; ///< full hierarchical dotted name
        const Counter *counter = nullptr;
        const Histogram *histogram = nullptr;
        std::function<std::uint64_t()> intGauge;
        std::function<double()> gauge;
    };

    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    /** Register a counter under @p name.  Duplicate full names assert. */
    void addCounter(std::string name, const Counter &c);

    /** Register a histogram. */
    void addHistogram(std::string name, const Histogram &h);

    /** Register a computed integral value. */
    void addIntGauge(std::string name, std::function<std::uint64_t()> fn);

    /** Register a computed floating-point value. */
    void addGauge(std::string name, std::function<double()> fn);

    const std::vector<Entry> &entries() const { return _entries; }

    /** True if any entry's name equals @p name. */
    bool has(std::string_view name) const;

    /**
     * JSON object mapping every metric's full name to its value.
     * Counters / int gauges render as integers, gauges as numbers,
     * histograms as {count,min,max,mean,p50,p90,p99}.  Deterministic:
     * registration order, fixed formatting.
     */
    std::string renderJson() const;

  private:
    Entry &add(Kind kind, std::string name);

    std::vector<Entry> _entries;
};

/**
 * A cursor into a MetricRegistry carrying a dotted name prefix, so
 * components register relative names without knowing where they are
 * mounted ("node0.nic" + "rpcs_out" -> "node0.nic.rpcs_out").
 * Cheap to copy; sub() derives child scopes.
 */
class MetricScope
{
  public:
    MetricScope(MetricRegistry &registry, std::string prefix)
        : _registry(&registry), _prefix(std::move(prefix))
    {}

    /** Child scope: "<prefix>.<name>" (or just @p name at the root). */
    MetricScope
    sub(std::string_view name) const
    {
        return MetricScope(*_registry, join(name));
    }

    void
    counter(std::string_view name, const Counter &c) const
    {
        _registry->addCounter(join(name), c);
    }

    void
    histogram(std::string_view name, const Histogram &h) const
    {
        _registry->addHistogram(join(name), h);
    }

    void
    intGauge(std::string_view name, std::function<std::uint64_t()> fn) const
    {
        _registry->addIntGauge(join(name), std::move(fn));
    }

    void
    gauge(std::string_view name, std::function<double()> fn) const
    {
        _registry->addGauge(join(name), std::move(fn));
    }

    const std::string &prefix() const { return _prefix; }

  private:
    std::string
    join(std::string_view name) const
    {
        if (_prefix.empty())
            return std::string(name);
        std::string full = _prefix;
        full += '.';
        full += name;
        return full;
    }

    MetricRegistry *_registry;
    std::string _prefix;
};

/** Escape a string for inclusion in a JSON document (no quotes added). */
std::string jsonEscape(std::string_view s);

/** Format a double the way the JSON renderers do (shortest round-trip-ish). */
std::string jsonNumber(double v);

} // namespace dagger::sim

#endif // DAGGER_SIM_METRICS_HH
