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
#include "nic/load_balancer.hh"
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
        cost = accessCost(key, /*is_get=*/true);
        if (_store.partitionOf(key) != partition % _store.numPartitions())
            cost += _cost.crossPartitionPenalty;
        return _store.get(partition % _store.numPartitions(), key);
    }

    bool
    kvSet(unsigned partition, std::string_view key, std::string_view value,
          sim::Tick &cost) override
    {
        cost = accessCost(key, /*is_get=*/false);
        if (_store.partitionOf(key) != partition % _store.numPartitions())
            cost += _cost.crossPartitionPenalty;
        _store.set(partition % _store.numPartitions(), key, value);
        return true;
    }

  private:
    sim::Tick
    accessCost(std::string_view key, bool is_get)
    {
        const std::uint64_t h = nic::ObjectLevelLb::hashKey(
            reinterpret_cast<const std::uint8_t *>(key.data()),
            key.size());
        const bool hot = _llc.access(h);
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
