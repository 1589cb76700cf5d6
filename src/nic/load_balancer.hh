/**
 * @file
 * Request load balancers of the RPC unit (§4.4.2, §5.7).
 *
 * "The Load Balancer currently supports two request distribution
 * schemes: dynamic uniform steering and static load balancing. In
 * addition, we leave some room in the design for implementation of
 * application-specific load balancers (e.g. the Object-Level core
 * affinity mechanism in MICA)."  All three are implemented here; the
 * Object-Level balancer hashes the request key on the NIC exactly as
 * §5.7 describes for the MICA tiers.
 */

#ifndef DAGGER_NIC_LOAD_BALANCER_HH
#define DAGGER_NIC_LOAD_BALANCER_HH

#include <cstdint>
#include <memory>

#include "nic/config.hh"
#include "nic/connection_manager.hh"
#include "proto/wire.hh"

namespace dagger::nic {

/** Strategy interface: choose the flow an incoming request joins. */
class LoadBalancer
{
  public:
    virtual ~LoadBalancer() = default;

    /**
     * @param msg    the incoming request
     * @param tuple  the connection tuple (for static steering)
     * @param flows  number of active flows
     * @return flow index in [0, flows)
     */
    virtual unsigned pick(const proto::RpcMessage &msg,
                          const ConnTuple &tuple, unsigned flows) = 0;

    virtual LbScheme scheme() const = 0;
};

/** Dynamic uniform steering: requests round-robin over flows. */
class RoundRobinLb final : public LoadBalancer
{
  public:
    unsigned
    pick(const proto::RpcMessage &, const ConnTuple &,
         unsigned flows) override
    {
        const unsigned f = _next % flows;
        _next = (_next + 1) % flows;
        return f;
    }

    LbScheme scheme() const override { return LbScheme::RoundRobin; }

  private:
    /// round-robin cursor
    unsigned _next = 0;
};

/** Static balancing: steering recorded in the connection tuple. */
class StaticLb final : public LoadBalancer
{
  public:
    unsigned
    pick(const proto::RpcMessage &, const ConnTuple &tuple,
         unsigned flows) override
    {
        return tuple.srcFlow % flows;
    }

    LbScheme scheme() const override { return LbScheme::Static; }
};

/**
 * Object-level core affinity (MICA): hash the request's key bytes "by
 * applying the hash function to each request's key on the FPGA before
 * steering them to the flow FIFOs" (§5.7).  The key's position inside
 * the payload is configured per NIC (it is fixed by the generated
 * message layout).
 */
class ObjectLevelLb final : public LoadBalancer
{
  public:
    /**
     * @param key_offset byte offset of the key within the payload
     * @param key_len    key length in bytes
     */
    ObjectLevelLb(std::size_t key_offset, std::size_t key_len)
        : _keyOffset(key_offset), _keyLen(key_len)
    {}

    unsigned pick(const proto::RpcMessage &msg, const ConnTuple &tuple,
                  unsigned flows) override;

    LbScheme scheme() const override { return LbScheme::ObjectLevel; }

    /** FNV-1a over the key bytes; exposed so apps can pre-shard. */
    static std::uint64_t hashKey(const std::uint8_t *data, std::size_t len);

  private:
    std::size_t _keyOffset;
    std::size_t _keyLen;
};

/** Factory from the soft-config scheme selector. */
std::unique_ptr<LoadBalancer>
makeLoadBalancer(LbScheme scheme, std::size_t key_offset = 0,
                 std::size_t key_len = 8);

} // namespace dagger::nic

#endif // DAGGER_NIC_LOAD_BALANCER_HH
