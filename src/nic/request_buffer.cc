#include "nic/request_buffer.hh"

#include "sim/logging.hh"

namespace dagger::nic {

RequestBuffer::RequestBuffer(std::size_t slots, unsigned flows)
    : _table(slots), _freeFifo(slots), _flowFifos(flows)
{
    dagger_assert(slots > 0, "request buffer needs slots");
    dagger_assert(flows > 0, "request buffer needs flows");
    for (auto &fifo : _flowFifos)
        fifo.reserve(slots);
    for (SlotId s = 0; s < slots; ++s)
        _freeFifo.pushSlot() = s;
}

std::optional<SlotId>
RequestBuffer::push(unsigned flow, proto::Frame frame)
{
    dagger_assert(flow < _flowFifos.size(), "bad flow ", flow);
    if (_freeFifo.empty()) {
        ++_rejections;
        return std::nullopt;
    }
    const SlotId slot = _freeFifo.take();
    dagger_assert(slot < _table.size(),
                  "free FIFO handed out slot ", slot, " beyond table size ",
                  _table.size());
    _table[slot] = std::move(frame);
    _flowFifos[flow].pushSlot() = slot;
    ++_pushes;
    return slot;
}

std::size_t
RequestBuffer::flowDepth(unsigned flow) const
{
    dagger_assert(flow < _flowFifos.size(), "bad flow ", flow);
    return _flowFifos[flow].size();
}

std::size_t
RequestBuffer::pop(unsigned flow, std::size_t n,
                   std::vector<proto::Frame> &out)
{
    dagger_assert(flow < _flowFifos.size(), "bad flow ", flow);
    auto &fifo = _flowFifos[flow];
    const std::size_t take = std::min(n, fifo.size());
    for (std::size_t i = 0; i < take; ++i) {
        const SlotId slot = fifo.take();
        out.push_back(std::move(_table[slot]));
        _freeFifo.pushSlot() = slot;
    }
    // Slots are conserved: every entry is either free or queued in
    // exactly one flow FIFO, so the free FIFO can never outgrow the
    // table (a double-release would trip this first).
    dagger_assert(_freeFifo.size() <= _table.size(),
                  "free FIFO (", _freeFifo.size(),
                  ") outgrew the request table (", _table.size(), ")");
    return take;
}

} // namespace dagger::nic
