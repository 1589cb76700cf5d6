/**
 * @file
 * Connection Manager (CM): hardware connection state (§4.2).
 *
 * "The connection table interface maps connection IDs (c_id) onto
 * tuples <src_flow, dest_addr, load_balancer>."  The CM is a
 * direct-mapped cache split into three banked tables indexed by the
 * log2(N) LSBs of the connection ID, providing 1W3R access so the
 * outgoing flow, the incoming flow, and the CM itself can read in the
 * same cycle without stalling.
 */

#ifndef DAGGER_NIC_CONNECTION_MANAGER_HH
#define DAGGER_NIC_CONNECTION_MANAGER_HH

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/tor_switch.hh"
#include "nic/config.hh"
#include "proto/wire.hh"
#include "sim/metrics.hh"
#include "sim/time.hh"

namespace dagger::nic {

/** The connection tuple stored per c_id (§4.2). */
struct ConnTuple
{
    unsigned srcFlow = 0;      ///< flow that owns this connection's rings
    net::NodeId destAddr = 0;  ///< destination NIC / host
    LbScheme loadBalancer = LbScheme::RoundRobin;

    bool operator==(const ConnTuple &) const = default;
};

/** Which hardware agent is reading (the three read ports). */
enum class CmReader : std::uint8_t {
    OutgoingFlow, ///< TX path: destination credentials
    IncomingFlow, ///< RX path: flow steering / load balancer
    Manager,      ///< the CM itself (open)
};

/**
 * The connection cache.  Entries live in a direct-mapped table of
 * NicConfig::connCacheEntries slots; with DRAM backing enabled,
 * evicted/missing entries can be refetched at connMissPenalty,
 * otherwise a miss on an open connection is an error in the caller's
 * setup and the lookup fails.
 */
class ConnectionManager
{
  public:
    explicit ConnectionManager(const NicConfig &cfg);

    /**
     * Open (register) a connection.
     * @retval false the slot conflict could not be resolved (no DRAM
     *         backing and the displaced connection would be lost).
     */
    bool open(proto::ConnId id, const ConnTuple &tuple);

    /**
     * Look up a connection from one of the three read ports.
     *
     * @param penalty out: access penalty (0 on cache hit; the
     *        coherent-fill cost when served from DRAM backing).
     * @return the tuple, or nullopt for an unknown connection.
     */
    std::optional<ConnTuple> lookup(proto::ConnId id, CmReader reader,
                                    sim::Tick &penalty);

    /** Convenience lookup ignoring the penalty (tests/config paths). */
    std::optional<ConnTuple>
    lookup(proto::ConnId id, CmReader reader)
    {
        sim::Tick penalty = 0;
        return lookup(id, reader, penalty);
    }

    std::uint64_t hits() const { return _hits; }
    std::uint64_t misses() const { return _misses; }
    std::uint64_t evictions() const { return _evictions; }
    std::size_t cachedConnections() const;
    std::size_t backingConnections() const { return _backing.size(); }

    /** Per-read-port access counts (exercises the 1W3R structure). */
    const std::array<std::uint64_t, 3> &readerAccesses() const
    {
        return _readerAccesses;
    }

    /** Register CM statistics under @p scope. */
    void
    registerMetrics(sim::MetricScope scope) const
    {
        scope.gauge("hit_rate",
                    [this] {
                        const auto total = _hits + _misses;
                        return total == 0
                            ? 0.0
                            : static_cast<double>(_hits) /
                                  static_cast<double>(total);
                    });
        scope.intGauge("hits", [this] { return _hits; });
        scope.intGauge("misses", [this] { return _misses; });
        scope.intGauge("evictions", [this] { return _evictions; });
        scope.intGauge("cached",
                       [this] {
                           return static_cast<std::uint64_t>(
                               cachedConnections());
                       });
        scope.intGauge("backing",
                       [this] {
                           return static_cast<std::uint64_t>(
                               _backing.size());
                       });
        scope.intGauge("reads_outgoing",
                       [this] { return _readerAccesses[0]; });
        scope.intGauge("reads_incoming",
                       [this] { return _readerAccesses[1]; });
        scope.intGauge("reads_manager", [this] { return _readerAccesses[2]; });
    }

  private:
    struct Slot
    {
        bool valid = false;
        proto::ConnId id = 0;
        ConnTuple tuple;
    };

    std::size_t index(proto::ConnId id) const
    {
        return static_cast<std::size_t>(id) & (_table.size() - 1);
    }

    const NicConfig &_cfg;
    /**
     * The three banked tables of the 1W3R design hold the same logical
     * mapping (c_id -> tuple field); functionally we keep one table
     * and count per-port accesses, which preserves behaviour exactly
     * (the banking only removes structural hazards in RTL).
     */
    std::vector<Slot> _table;
    /// host DRAM
    std::unordered_map<proto::ConnId, ConnTuple> _backing;
    std::uint64_t _hits = 0;
    std::uint64_t _misses = 0;
    std::uint64_t _evictions = 0;
    std::array<std::uint64_t, 3> _readerAccesses{};
};

} // namespace dagger::nic

#endif // DAGGER_NIC_CONNECTION_MANAGER_HH
