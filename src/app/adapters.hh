/**
 * @file
 * KvBackend adapters for the two stores of §5.6.
 */

#ifndef DAGGER_APP_ADAPTERS_HH
#define DAGGER_APP_ADAPTERS_HH

#include "app/kvs_service.hh"
#include "app/memcached.hh"
#include "app/mica.hh"
#include "mem/set_assoc_cache.hh"
#include "sim/event_queue.hh"

namespace dagger::app {

/** MICA behind the Dagger KVS service (EREW partitions by flow). */
class MicaBackend final : public KvBackend
{
  public:
    explicit MicaBackend(MicaKvs &store, MicaCost cost = {})
        : _store(store), _cost(cost), _llc(cost.llcItems)
    {}

    std::optional<std::string>
    kvGet(unsigned partition, std::string_view key, sim::Tick &cost) override
    {
        const MicaKey k(key);
        const unsigned caller = partition % _store.numPartitions();
        cost = accessCost(k.hash, /*is_get=*/true);
        if (_store.partitionOf(k) != caller)
            cost += _cost.crossPartitionPenalty;
        return _store.get(caller, k);
    }

    bool
    kvSet(unsigned partition, std::string_view key, std::string_view value,
          sim::Tick &cost) override
    {
        const MicaKey k(key);
        const unsigned caller = partition % _store.numPartitions();
        cost = accessCost(k.hash, /*is_get=*/false);
        if (_store.partitionOf(k) != caller)
            cost += _cost.crossPartitionPenalty;
        _store.set(caller, k, value);
        return true;
    }

  private:
    sim::Tick
    accessCost(std::uint64_t key_hash, bool is_get)
    {
        const bool hot = _llc.access(key_hash);
        if (is_get)
            return hot ? _cost.hotGetCost : _cost.coldGetCost;
        return hot ? _cost.hotSetCost : _cost.coldSetCost;
    }

    MicaKvs &_store;
    MicaCost _cost;
    mem::SetAssocLruCache _llc; ///< item residency model
};

/** Memcached behind the Dagger KVS service (shared store, any thread). */
class MemcachedBackend final : public KvBackend
{
  public:
    MemcachedBackend(Memcached &store, sim::EventQueue &eq,
                     MemcachedCost cost = {})
        : _store(store), _eq(eq), _cost(cost)
    {}

    std::optional<std::string>
    kvGet(unsigned, std::string_view key, sim::Tick &cost) override
    {
        cost = _cost.getCost;
        return _store.get(key, _eq.now());
    }

    bool
    kvSet(unsigned, std::string_view key, std::string_view value,
          sim::Tick &cost) override
    {
        cost = _cost.setCost;
        _store.set(key, value, _eq.now());
        return true;
    }

  private:
    Memcached &_store;
    sim::EventQueue &_eq;
    MemcachedCost _cost;
};

} // namespace dagger::app

#endif // DAGGER_APP_ADAPTERS_HH
