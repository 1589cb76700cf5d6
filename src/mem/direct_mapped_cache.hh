/**
 * @file
 * Generic direct-mapped cache model with hit/miss/eviction statistics.
 *
 * Used for the Host Coherent Cache (HCC, 128 KB, §4.1).  The NIC
 * connection cache (nic::ConnectionManager, §4.2) keeps its own
 * direct-mapped table.
 */

#ifndef DAGGER_MEM_DIRECT_MAPPED_CACHE_HH
#define DAGGER_MEM_DIRECT_MAPPED_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/logging.hh"
#include "sim/metrics.hh"

namespace dagger::mem {

/**
 * Direct-mapped cache keyed by a 64-bit key, holding values of type V.
 * Index = key & (sets-1); sets must be a power of two.
 */
template <typename V>
class DirectMappedCache
{
  public:
    explicit DirectMappedCache(std::size_t sets) : _slots(sets)
    {
        dagger_assert(sets > 0 && (sets & (sets - 1)) == 0,
                      "cache sets must be a power of two, got ", sets);
    }

    std::size_t sets() const { return _slots.size(); }

    /** Look up @p key; counts a hit or a miss. */
    std::optional<V>
    lookup(std::uint64_t key)
    {
        Slot &s = slotFor(key);
        if (s.valid && s.key == key) {
            ++_hits;
            return s.value;
        }
        ++_misses;
        return std::nullopt;
    }

    /** Peek without touching statistics. */
    std::optional<V>
    peek(std::uint64_t key) const
    {
        const Slot &s = _slots[index(key)];
        if (s.valid && s.key == key)
            return s.value;
        return std::nullopt;
    }

    /**
     * Insert @p key -> @p value.
     * @return the evicted (key, value) pair if a different key was
     *         displaced.
     */
    std::optional<std::pair<std::uint64_t, V>>
    insert(std::uint64_t key, V value)
    {
        Slot &s = slotFor(key);
        std::optional<std::pair<std::uint64_t, V>> evicted;
        if (s.valid && s.key != key) {
            ++_evictions;
            evicted = std::make_pair(s.key, std::move(s.value));
        }
        s.valid = true;
        s.key = key;
        s.value = std::move(value);
        return evicted;
    }

    /** Remove @p key if present. @return true if it was present. */
    bool
    erase(std::uint64_t key)
    {
        Slot &s = slotFor(key);
        if (s.valid && s.key == key) {
            s.valid = false;
            return true;
        }
        return false;
    }

    /** Number of valid entries (O(sets)). */
    std::size_t
    occupancy() const
    {
        std::size_t n = 0;
        for (const Slot &s : _slots)
            n += s.valid;
        return n;
    }

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }
    std::uint64_t evictions() const { return _evictions; }

    double
    hitRate() const
    {
        const auto total = _hits + _misses;
        return total == 0
            ? 0.0
            : static_cast<double>(_hits) / static_cast<double>(total);
    }

    /** Register this cache's statistics under @p scope. */
    void
    registerMetrics(sim::MetricScope scope) const
    {
        scope.gauge("hit_rate", [this] { return hitRate(); });
        scope.intGauge("hits", [this] { return _hits; });
        scope.intGauge("misses", [this] { return _misses; });
        scope.intGauge("evictions", [this] { return _evictions; });
        scope.intGauge("occupancy",
                       [this] {
                           return static_cast<std::uint64_t>(occupancy());
                       });
    }

  private:
    struct Slot
    {
        bool valid = false;
        std::uint64_t key = 0;
        V value{};
    };

    std::size_t index(std::uint64_t key) const
    {
        return static_cast<std::size_t>(key) & (_slots.size() - 1);
    }
    Slot &slotFor(std::uint64_t key) { return _slots[index(key)]; }

    std::vector<Slot> _slots;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _evictions = 0;
};

} // namespace dagger::mem

#endif // DAGGER_MEM_DIRECT_MAPPED_CACHE_HH
