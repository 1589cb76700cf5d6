#include "nic/load_balancer.hh"

namespace dagger::nic {

std::uint64_t
ObjectLevelLb::hashKey(const std::uint8_t *data, std::size_t len)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

unsigned
ObjectLevelLb::pick(const proto::RpcMessage &msg, unsigned flows) const
{
    const auto &payload = msg.payload();
    if (_keyOffset + _keyLen > payload.size()) {
        // Request without a key at the configured position (e.g. a
        // control RPC): fall back to flow 0 deterministically.
        return 0;
    }
    return static_cast<unsigned>(
        hashKey(payload.data() + _keyOffset, _keyLen) % flows);
}

} // namespace dagger::nic
