/**
 * @file
 * The TX-path request buffer of Fig. 9(B).
 *
 * "Dagger implements a request buffer ... which stores all incoming
 * RPCs in a lookup table indexed by the slot_id. The Free Slot FIFO
 * is designed to keep track of free entries in the request buffer.
 * The Flow FIFOs in this case only contain references (slot_ids) to
 * the actual RPC data in the table."  The table holds B * N_flows
 * entries (one frame each).
 */

#ifndef DAGGER_NIC_REQUEST_BUFFER_HH
#define DAGGER_NIC_REQUEST_BUFFER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "proto/wire.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/reuse.hh"

namespace dagger::nic {

/** Index into the request table. */
using SlotId = std::uint32_t;

/**
 * Request table + free-slot FIFO + per-flow FIFOs of slot references.
 */
class RequestBuffer
{
  public:
    /**
     * @param slots total request-table entries (B * N_flows in the
     *              paper's sizing; larger is allowed)
     * @param flows number of flow FIFOs
     */
    RequestBuffer(std::size_t slots, unsigned flows);

    /**
     * Store one frame and append its slot reference to @p flow's FIFO.
     * @retval nullopt no free slot (backpressure: caller must drop or
     *         stall the ingress pipeline).
     */
    std::optional<SlotId> push(unsigned flow, proto::Frame frame);

    /** Frames queued in @p flow's FIFO. */
    std::size_t flowDepth(unsigned flow) const;

    /**
     * Pop up to @p n frames from @p flow in FIFO order, appending them
     * to @p out and returning the slots to the free FIFO.
     * @return the number of frames popped.
     */
    std::size_t pop(unsigned flow, std::size_t n,
                    std::vector<proto::Frame> &out);

    std::size_t freeSlots() const { return _freeFifo.size(); }
    std::size_t capacity() const { return _table.size(); }

    std::uint64_t pushes() const { return _pushes; }
    std::uint64_t rejections() const { return _rejections; }

    /** Register buffer statistics (JSON-only). */
    void
    registerMetrics(sim::MetricScope scope) const
    {
        scope.intGauge("pushes", [this] { return _pushes; });
        scope.intGauge("rejections", [this] { return _rejections; });
        scope.intGauge("free_slots",
                       [this] {
                           return static_cast<std::uint64_t>(
                               _freeFifo.size());
                       });
    }

  private:
    std::vector<proto::Frame> _table;
    // Every slot id is either free or queued in exactly one flow FIFO,
    // so each FIFO is sized to the table once, at construction.
    sim::RingFifo<SlotId> _freeFifo;
    std::vector<sim::RingFifo<SlotId>> _flowFifos;
    std::uint64_t _pushes = 0;
    std::uint64_t _rejections = 0;
};

} // namespace dagger::nic

#endif // DAGGER_NIC_REQUEST_BUFFER_HH
