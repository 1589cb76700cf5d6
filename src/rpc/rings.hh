/**
 * @file
 * Host-side network buffers: the RX/TX rings of Fig. 8.
 *
 * "RX/TX rings are comprised of RX/TX buffers and free buffers. The
 * former store RPC payloads for all requests until the NIC/completion
 * queue acknowledges receiving the data by placing the ID of the
 * corresponding RX/TX buffer entry into the free buffer." (§4.4)
 *
 * The rings are functional: real frames are stored and moved.  Entry
 * reuse models the paper exactly — a TX entry becomes writable again
 * only after the NIC's bookkeeping message releases it, so an
 * undersized ring blocks the flow (the paper sizes TX rings at >= 10x
 * the mean RPC size per 12.4 Mrps flow for this reason).
 */

#ifndef DAGGER_RPC_RINGS_HH
#define DAGGER_RPC_RINGS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "proto/wire.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/reuse.hh"

namespace dagger::rpc {

/**
 * Transmit ring: software producer, NIC consumer.
 * Capacity is counted in 64 B frames (= cache lines = buffer entries).
 */
class TxRing
{
  public:
    explicit TxRing(std::size_t entries)
        : _capacity(entries)
    {
        dagger_assert(entries > 0, "TxRing needs capacity");
    }

    std::size_t capacity() const { return _capacity; }

    /** Frames written but not yet released by NIC bookkeeping. */
    std::size_t used() const { return _used; }

    /** Frames written and not yet fetched by the NIC. */
    std::size_t pendingFrames() const { return _pending.size(); }

    /** True if a message of @p frames frames fits right now. */
    bool
    hasSpace(std::size_t frames) const
    {
        return _used + frames <= _capacity;
    }

    /**
     * Software: append all frames of @p msg, written in place into
     * ring storage.
     * @retval false the ring is full (flow blocked); nothing written.
     */
    bool
    push(const proto::RpcMessage &msg)
    {
        const std::size_t n = msg.frameCount();
        if (!hasSpace(n)) {
            ++_blocked;
            return false;
        }
        _used += n;
        _pushedFrames += n;
        // Occupancy is the wrap-math ground truth: entries written but
        // not yet released never exceed the ring, and frames the NIC
        // has not claimed yet are a subset of the occupied ones.
        dagger_assert(_used <= _capacity,
                      "TX ring over-filled: used=", _used,
                      " capacity=", _capacity);
        dagger_assert(_pending.size() + n <= _used,
                      "TX ring pending frames exceed occupancy");
        for (std::size_t i = 0; i < n; ++i)
            msg.writeFrame(i, _pending.pushSlot());
        if (_notify)
            _notify();
        return true;
    }

    /**
     * NIC: claim up to @p n frames in FIFO order, appending them to
     * @p out.  Claimed entries stay occupied until release().
     * @return the number of frames claimed.
     */
    std::size_t
    popFrames(std::size_t n, std::vector<proto::Frame> &out)
    {
        const std::size_t take = std::min(n, _pending.size());
        for (std::size_t i = 0; i < take; ++i)
            out.push_back(_pending.take());
        _poppedFrames += take;
        dagger_assert(_poppedFrames <= _pushedFrames,
                      "TX ring popped more frames than were pushed");
        return take;
    }

    /** NIC bookkeeping: return @p n entries to the free buffer. */
    void
    release(std::size_t n)
    {
        dagger_assert(n <= _used, "releasing more than used");
        _used -= n;
        if (_spaceNotify && n > 0)
            _spaceNotify();
    }

    /** NIC subscribes: called on every push. */
    void setNotify(std::function<void()> fn) { _notify = std::move(fn); }

    /** Software subscribes: called when space frees up. */
    void
    setSpaceNotify(std::function<void()> fn)
    {
        _spaceNotify = std::move(fn);
    }

    std::uint64_t pushedFrames() const { return _pushedFrames; }
    std::uint64_t poppedFrames() const { return _poppedFrames; }
    std::uint64_t blocked() const { return _blocked; }

  private:
    std::size_t _capacity;
    std::size_t _used = 0;
    /** Written, unclaimed frames.  Storage grows to the peak backlog
     *  (at most the ring) and is then reused; sizing it to the ring
     *  up front cost RSS and setup time on big, mostly idle rings. */
    sim::RingFifo<proto::Frame> _pending;
    std::function<void()> _notify;
    std::function<void()> _spaceNotify;
    std::uint64_t _pushedFrames = 0;
    std::uint64_t _poppedFrames = 0;
    std::uint64_t _blocked = 0;
};

/**
 * Receive ring: NIC producer, software consumer.  The NIC delivers
 * whole frames; software reassembles messages (paper §4.7: software
 * reassembly).  Overflow at delivery time is a drop, mirroring the
 * paper's "<1% packet drops on the server" methodology.
 */
class RxRing
{
  public:
    explicit RxRing(std::size_t entries)
        : _capacity(entries)
    {
        dagger_assert(entries > 0, "RxRing needs capacity");
    }

    std::size_t capacity() const { return _capacity; }
    std::size_t occupied() const { return _frames.size(); }

    /**
     * NIC: deliver a batch of frames.  The frames are moved out; the
     * caller keeps (and may reuse) the vector's storage.
     * @return number of frames actually accepted (rest dropped).
     */
    std::size_t
    deliver(std::vector<proto::Frame> &&frames)
    {
        std::size_t accepted = 0;
        for (auto &f : frames) {
            if (_frames.size() >= _capacity) {
                ++_drops;
                continue;
            }
            _frames.push_back(std::move(f));
            ++accepted;
        }
        dagger_assert(_frames.size() <= _capacity,
                      "RX ring over-filled: occupied=", _frames.size(),
                      " capacity=", _capacity);
        _deliveredFrames += accepted;
        if (_notify && accepted > 0)
            _notify();
        return accepted;
    }

    /**
     * Software: pop the next complete RPC message, feeding frames
     * through the reassembler.  Frees ring entries immediately (the
     * consumer takes the payload out of the ring, step 7 in Fig. 8).
     * @retval false no complete message available.
     */
    bool
    popMessage(proto::RpcMessage &out)
    {
        while (!_frames.empty()) {
            if (_reassembler.push(_frames.take(), out))
                return true;
        }
        return false;
    }

    /** Software subscribes: called whenever frames arrive. */
    void setNotify(std::function<void()> fn) { _notify = std::move(fn); }

    std::uint64_t drops() const { return _drops; }
    std::uint64_t deliveredFrames() const { return _deliveredFrames; }
    std::uint64_t malformed() const { return _reassembler.malformed(); }

  private:
    std::size_t _capacity;
    /** Delivered, unconsumed frames; storage as for TxRing::_pending. */
    sim::RingFifo<proto::Frame> _frames;
    proto::Reassembler _reassembler;
    std::function<void()> _notify;
    std::uint64_t _drops = 0;
    std::uint64_t _deliveredFrames = 0;
};

/** A flow's pair of rings (one per NIC flow, Fig. 7). */
struct FlowRings
{
    FlowRings(std::size_t tx_entries, std::size_t rx_entries)
        : tx(tx_entries), rx(rx_entries)
    {}

    TxRing tx;
    RxRing rx;

    /** Register ring-health statistics under @p scope. */
    void
    registerMetrics(sim::MetricScope scope) const
    {
        scope.intGauge("rx.drops", [this] { return rx.drops(); });
        scope.intGauge("rx.delivered_frames",
                       [this] { return rx.deliveredFrames(); });
        scope.intGauge("rx.malformed", [this] { return rx.malformed(); });
        scope.intGauge("rx.occupied",
                       [this] {
                           return static_cast<std::uint64_t>(rx.occupied());
                       });
        scope.intGauge("tx.pushed_frames",
                       [this] { return tx.pushedFrames(); });
        scope.intGauge("tx.popped_frames",
                       [this] { return tx.poppedFrames(); });
        scope.intGauge("tx.blocked", [this] { return tx.blocked(); });
        scope.intGauge("tx.used",
                       [this] {
                           return static_cast<std::uint64_t>(tx.used());
                       });
    }
};

} // namespace dagger::rpc

#endif // DAGGER_RPC_RINGS_HH
