#include "nic/connection_manager.hh"

#include "sim/logging.hh"

namespace dagger::nic {

ConnectionManager::ConnectionManager(const NicConfig &cfg)
    : _cfg(cfg), _table(cfg.connCacheEntries)
{
    dagger_assert(cfg.connCacheEntries > 0 &&
                  (cfg.connCacheEntries & (cfg.connCacheEntries - 1)) == 0,
                  "connection cache entries must be a power of two, got ",
                  cfg.connCacheEntries);
}

bool
ConnectionManager::open(proto::ConnId id, const ConnTuple &tuple)
{
    ++_readerAccesses[static_cast<std::size_t>(CmReader::Manager)];
    Slot &s = _table[index(id)];
    if (s.valid && s.id != id) {
        // Direct-mapped conflict.
        if (!_cfg.connCacheDramBacking) {
            dagger_warn("connection cache conflict: c_id ", id,
                        " displaces c_id ", s.id,
                        " and DRAM backing is disabled");
            return false;
        }
        ++_evictions;
        _backing[s.id] = s.tuple;
    }
    s.valid = true;
    s.id = id;
    s.tuple = tuple;
    if (_cfg.connCacheDramBacking)
        _backing[id] = tuple;
    return true;
}

std::optional<ConnTuple>
ConnectionManager::lookup(proto::ConnId id, CmReader reader,
                          sim::Tick &penalty)
{
    ++_readerAccesses[static_cast<std::size_t>(reader)];
    penalty = 0;
    Slot &s = _table[index(id)];
    if (s.valid && s.id == id) {
        ++_hits;
        return s.tuple;
    }
    ++_misses;
    if (!_cfg.connCacheDramBacking)
        return std::nullopt;
    auto it = _backing.find(id);
    if (it == _backing.end())
        return std::nullopt;
    // Coherent fill from host DRAM; refill the cache slot.
    penalty = _cfg.connMissPenalty;
    if (s.valid && s.id != id) {
        ++_evictions;
        _backing[s.id] = s.tuple;
    }
    s.valid = true;
    s.id = id;
    s.tuple = it->second;
    return it->second;
}

std::size_t
ConnectionManager::cachedConnections() const
{
    std::size_t n = 0;
    for (const Slot &s : _table)
        n += s.valid;
    return n;
}

} // namespace dagger::nic
