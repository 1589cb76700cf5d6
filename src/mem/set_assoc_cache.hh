/**
 * @file
 * Set-associative LRU cache model.
 *
 * Used where direct-mapped residency would thrash (e.g., the MICA
 * item-residency model under Zipfian traffic): with per-set LRU the
 * hit rate converges to the Che approximation — roughly the request
 * mass of the hottest `capacity` items — which is the behaviour of a
 * real LLC.
 */

#ifndef DAGGER_MEM_SET_ASSOC_CACHE_HH
#define DAGGER_MEM_SET_ASSOC_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>

#include "sim/logging.hh"

namespace dagger::mem {

/**
 * Presence-only set-associative LRU cache keyed by 64-bit keys.
 *
 * Storage is flat: one `sets x ways` array of keys, each set's row
 * kept MRU-first, plus a per-set fill count.  Building a cache is two
 * allocations whatever its size, and rows are never cleared: only the
 * first `fill` keys of a row are ever read, and each was written
 * before its row's count covered it.
 */
class SetAssocLruCache
{
  public:
    /**
     * @param capacity total entries (rounded up to sets*ways)
     * @param ways     associativity
     */
    explicit SetAssocLruCache(std::size_t capacity, unsigned ways = 16)
        : _ways(ways)
    {
        dagger_assert(ways >= 1 &&
                      ways <= std::numeric_limits<Fill>::max(),
                      "associativity out of range: ", ways);
        std::size_t sets = 1;
        while (sets * ways < capacity)
            sets <<= 1;
        _sets = sets;
        _keys = std::make_unique_for_overwrite<std::uint64_t[]>(sets * ways);
        _fill = std::make_unique<Fill[]>(sets);
    }

    /**
     * Access @p key: returns true on a hit.  On a miss the key is
     * inserted, evicting the set's LRU entry if full.  Hits move the
     * key to MRU position.
     */
    bool
    access(std::uint64_t key)
    {
        const std::size_t set = indexOf(key);
        std::uint64_t *row = _keys.get() + set * _ways;
        Fill &fill = _fill[set];
        for (std::size_t i = 0; i < fill; ++i) {
            if (row[i] == key) {
                // Move to MRU (front).
                std::memmove(row + 1, row, i * sizeof(*row));
                row[0] = key;
                ++_hits;
                return true;
            }
        }
        ++_misses;
        if (fill < _ways) {
            std::memmove(row + 1, row, fill * sizeof(*row));
            ++fill;
        } else {
            std::memmove(row + 1, row, (_ways - 1) * sizeof(*row));
            ++_evictions;
        }
        row[0] = key;
        return false;
    }

    /** Probe without mutating state or statistics. */
    bool
    contains(std::uint64_t key) const
    {
        const std::size_t set = indexOf(key);
        const std::uint64_t *row = _keys.get() + set * _ways;
        const std::uint64_t *end = row + _fill[set];
        return std::find(row, end, key) != end;
    }

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }
    std::uint64_t evictions() const { return _evictions; }
    std::size_t capacity() const { return _sets * _ways; }

    double
    hitRate() const
    {
        const auto total = _hits + _misses;
        return total == 0
            ? 0.0
            : static_cast<double>(_hits) / static_cast<double>(total);
    }

  private:
    /** Keys held by one set; holds any supported associativity. */
    using Fill = std::uint8_t;

    std::size_t
    indexOf(std::uint64_t key) const
    {
        std::uint64_t h = key * 0x9e3779b97f4a7c15ull;
        return static_cast<std::size_t>(h >> 40) & (_sets - 1);
    }

    unsigned _ways;
    std::size_t _sets = 0;
    std::unique_ptr<std::uint64_t[]> _keys; ///< sets x ways, MRU first
    std::unique_ptr<Fill[]> _fill;          ///< keys held per set
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _evictions = 0;
};

} // namespace dagger::mem

#endif // DAGGER_MEM_SET_ASSOC_CACHE_HH
