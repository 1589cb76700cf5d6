/**
 * @file
 * A faithful miniature of MICA (Lim et al., NSDI'14), the KVS the
 * paper ports onto Dagger in §5.6.
 *
 * Structure follows the original: the store is split into per-core
 * partitions (EREW — each partition is owned by exactly one serving
 * thread, with requests steered by key hash, which is what Dagger's
 * Object-Level load balancer reproduces on the NIC).  Each partition
 * is a *lossy* set-associative index over a circular append-only log:
 * inserts may displace colliding entries, and log wrap-around
 * invalidates the oldest items.
 */

#ifndef DAGGER_APP_MICA_HH
#define DAGGER_APP_MICA_HH

#include <concepts>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hh"

namespace dagger::app {

/** Statistics for one partition / the whole store. */
struct MicaStats
{
    std::uint64_t gets = 0;
    std::uint64_t getHits = 0;
    std::uint64_t sets = 0;
    std::uint64_t indexEvictions = 0; ///< lossy-index displacements
    std::uint64_t logWraps = 0;
    std::uint64_t crossPartition = 0; ///< EREW violations (wrong thread)

    void
    merge(const MicaStats &o)
    {
        gets += o.gets;
        getHits += o.getHits;
        sets += o.sets;
        indexEvictions += o.indexEvictions;
        logWraps += o.logWraps;
        crossPartition += o.crossPartition;
    }
};

/**
 * A key with its FNV-1a hash, computed once per access.  It is the hash
 * the NIC's Object-Level load balancer steers by; the owning partition,
 * the index bucket and the tag all derive from it, and so does
 * MicaBackend's LLC-residency model.  It views the caller's bytes, so
 * it lives no longer than the access.
 */
struct MicaKey
{
    /** Hash anything that views as a string: a literal, a
     *  std::string, a string_view or an app::HexKey. */
    template <typename K>
        requires std::convertible_to<const K &, std::string_view>
    MicaKey(const K &key) : bytes(key), hash(hashOf(bytes))
    {}

    std::string_view bytes;
    std::uint64_t hash;

  private:
    static std::uint64_t hashOf(std::string_view key);
};

/**
 * One MICA partition: lossy index + circular log.
 *
 * Like MICA's, both structures cost only what is written to them.  The
 * index comes from zeroed pages (an all-zero entry is an empty way) and
 * the log is never initialised at all; see readRecord() for why that
 * is safe.
 */
class MicaPartition
{
  public:
    /**
     * @param log_bytes    circular log capacity
     * @param index_buckets set count of the lossy index (power of two)
     */
    MicaPartition(std::size_t log_bytes, std::size_t index_buckets);

    /** Insert or overwrite. Always succeeds (lossy semantics). */
    void set(const MicaKey &key, std::string_view value);

    /** Fetch; nullopt on miss (never stored, displaced, or wrapped). */
    std::optional<std::string> get(const MicaKey &key);

    /** Remove (tombstone by index invalidation). */
    bool erase(const MicaKey &key);

    const MicaStats &stats() const { return _stats; }

    /** Record an EREW violation observed by the owning store. */
    void noteCrossPartition() { ++_stats.crossPartition; }

  private:
    static constexpr unsigned kWays = 8;

    /** Offsets an index entry can hold (47 bits, as in MICA). */
    static constexpr std::uint64_t kOffsetLimit = std::uint64_t{1} << 47;

    /**
     * One index way, packed into 64 bits as MICA packs it: a valid
     * bit, a 16-bit tag and a 47-bit absolute log offset.  All-zero
     * bits are an empty way.
     */
    struct IndexEntry
    {
        std::uint64_t valid : 1;
        std::uint64_t tag : 16;
        std::uint64_t offset : 47; ///< absolute log offset (monotonic)
    };
    static_assert(sizeof(IndexEntry) == 8);

    /** An index set; all-zero bytes are an empty one. */
    struct Bucket
    {
        IndexEntry ways[kWays];
        unsigned nextVictim;
    };

    struct FreeDeleter
    {
        void operator()(void *p) const { std::free(p); }
    };

    /** Log record header. */
    struct RecordHeader
    {
        std::uint16_t keyLen;
        std::uint16_t valLen;
    };

    Bucket &bucketFor(std::uint64_t hash);
    static std::uint16_t tagOf(std::uint64_t hash);

    /** Append a record; returns its absolute offset. */
    std::uint64_t appendRecord(std::string_view key, std::string_view value);

    /**
     * Read the record at absolute @p offset if still live.
     *
     * @p offset always comes from an index entry, which only
     * appendRecord() fills.  A record the head has not lapped is
     * intact, and every byte read here lies inside it (its header says
     * how far), so no read reaches log bytes that were never written.
     */
    bool readRecord(std::uint64_t offset, std::string_view key,
                    std::string &value_out) const;

    std::unique_ptr<std::uint8_t[]> _log; ///< never zero-filled
    std::size_t _logBytes;
    std::uint64_t _head = 0; ///< absolute append offset (monotonic)
    std::unique_ptr<Bucket[], FreeDeleter> _buckets; ///< from calloc
    std::size_t _numBuckets;
    MicaStats _stats;
};

/**
 * The partitioned store.  Key-to-partition mapping uses the same
 * FNV-1a hash as the NIC's Object-Level load balancer, so hardware
 * steering and the store agree on ownership.
 */
class MicaKvs
{
  public:
    /**
     * @param partitions        per-core partitions
     * @param log_bytes_each    circular log capacity per partition
     * @param index_buckets_each lossy-index buckets per partition
     */
    MicaKvs(unsigned partitions, std::size_t log_bytes_each,
            std::size_t index_buckets_each);

    /** Partition owning @p key. */
    unsigned partitionOf(const MicaKey &key) const;

    /**
     * Access through a specific serving thread (EREW check): if
     * @p caller_partition differs from the key's owner the access
     * still works but is counted as a cross-partition violation —
     * this is what a round-robin balancer does to MICA (§5.7).
     */
    void set(unsigned caller_partition, const MicaKey &key,
             std::string_view value);
    std::optional<std::string> get(unsigned caller_partition,
                                   const MicaKey &key);

    MicaPartition &partition(unsigned i);
    unsigned numPartitions() const
    {
        return static_cast<unsigned>(_parts.size());
    }

    /** Aggregated statistics. */
    MicaStats totalStats() const;

  private:
    std::vector<MicaPartition> _parts;
};

/**
 * Calibrated per-op service costs (see DESIGN.md §4).  Costs are
 * two-tier: an item resident in the processor LLC is served at cache
 * speed; a cold item walks the index + log in DRAM.  This is what
 * makes throughput skew-dependent, as §5.6 observes ("skewness of
 * 0.9999 ... yields even higher data locality, and therefore better
 * cache utilization", raising MICA from ~5 to ~10 Mrps).
 */
struct MicaCost
{
    /** GET of an LLC-resident item. */
    sim::Tick hotGetCost = sim::nsToTicks(55);

    /** GET that misses the LLC (index + log walk in DRAM). */
    sim::Tick coldGetCost = sim::nsToTicks(450);

    /** SET of an LLC-resident item. */
    sim::Tick hotSetCost = sim::nsToTicks(120);

    /** SET that misses the LLC. */
    sim::Tick coldSetCost = sim::nsToTicks(520);

    /** Extra cost when EREW is violated (remote partition access). */
    sim::Tick crossPartitionPenalty = sim::nsToTicks(260);

    /**
     * Modeled LLC capacity in items.  The paper's ratio is what
     * matters: ~650K LLC-resident items over a 200M-key dataset
     * (0.33%).  Bench key spaces are scaled down (see fig12), so the
     * default models the same *ratio* against a 1M-key space.
     */
    std::size_t llcItems = std::size_t{1} << 18;
};

} // namespace dagger::app

#endif // DAGGER_APP_MICA_HH
