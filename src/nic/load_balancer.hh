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

#include "nic/connection_manager.hh"
#include "proto/wire.hh"

namespace dagger::nic {

/** Dynamic uniform steering: requests round-robin over flows. */
class RoundRobinLb
{
  public:
    /** @return the next flow index in [0, flows) */
    unsigned
    pick(unsigned flows)
    {
        const unsigned f = _next % flows;
        _next = (_next + 1) % flows;
        return f;
    }

  private:
    /// round-robin cursor
    unsigned _next = 0;
};

/** Static balancing: steering recorded in the connection tuple. */
class StaticLb
{
  public:
    unsigned
    pick(const ConnTuple &tuple, unsigned flows) const
    {
        return tuple.srcFlow % flows;
    }
};

/**
 * Object-level core affinity (MICA): hash the request's key bytes "by
 * applying the hash function to each request's key on the FPGA before
 * steering them to the flow FIFOs" (§5.7).  The key's position inside
 * the payload is configured per NIC (it is fixed by the generated
 * message layout).
 */
class ObjectLevelLb
{
  public:
    /**
     * @param key_offset byte offset of the key within the payload
     * @param key_len    key length in bytes
     */
    ObjectLevelLb(std::size_t key_offset, std::size_t key_len)
        : _keyOffset(key_offset), _keyLen(key_len)
    {}

    unsigned pick(const proto::RpcMessage &msg, unsigned flows) const;

    /** FNV-1a over the key bytes; exposed so apps can pre-shard. */
    static std::uint64_t hashKey(const std::uint8_t *data, std::size_t len);

  private:
    std::size_t _keyOffset;
    std::size_t _keyLen;
};

} // namespace dagger::nic

#endif // DAGGER_NIC_LOAD_BALANCER_HH
