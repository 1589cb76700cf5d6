/**
 * @file
 * Zero-copy payload storage for the Dagger data path.
 *
 * The paper's NIC moves RPC payloads at cache-line granularity by
 * reading TX-ring lines directly from host memory (§4.4) — bytes are
 * written once by the application and then *referenced*, not re-copied,
 * as they traverse rings, the NIC pipeline, and the switch.  This file
 * provides the simulator-side analogue:
 *
 *  - PayloadBuf: an immutable, refcounted flat buffer.  Payloads of up
 *    to one frame (48 B) live inline in the handle itself (the way a
 *    single-line RPC rides in one flit); larger payloads live on the
 *    heap behind an atomically refcounted handle, so copies of the
 *    handle are cheap and thread-safe.
 *
 *  - PayloadView: a (handle, offset, length) slice of a PayloadBuf.
 *    Frames carry views into the message buffer instead of owned byte
 *    arrays, so fragmentation, ring hops, switch queues, and
 *    retransmission copies all pass handles.
 *
 * Real byte copies happen only at the API edges (message construction,
 * payloadAs() delivery) and in FaultInjector::corrupt's copy-on-write;
 * the per-thread counters below make that auditable: bytes_copied must
 * stay O(payload) per RPC no matter how many hops the frames take,
 * while handle_passes grows with hop count.
 */

#ifndef DAGGER_PROTO_PAYLOAD_HH
#define DAGGER_PROTO_PAYLOAD_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <vector>

namespace dagger::proto {

/** Cache line size of the host CPU and the interconnect MTU. */
constexpr std::size_t kCacheLineBytes = 64;

/** Header bytes per frame. */
constexpr std::size_t kHeaderBytes = 16;

/** Payload bytes per frame (also the PayloadBuf inline capacity). */
constexpr std::size_t kFramePayload = kCacheLineBytes - kHeaderBytes;

/**
 * Largest RPC payload the wire format can carry: payloadLen is a
 * uint16_t in every frame header.  The client API rejects larger
 * payloads recoverably (CallStatus::Rejected); the RpcMessage
 * constructor asserts, since reaching it oversize means a layer above
 * skipped the check.
 */
constexpr std::size_t kMaxPayloadBytes = 0xffff;

namespace detail {
/**
 * This thread's data-path copy accounting.  A simulated system runs on
 * one thread, so plain per-thread counters are exact: a system's
 * numbers never include copies made by another thread (another
 * --jobs scenario, say).  A handle pass happens for every frame of
 * every hop, so the increment is a plain add.
 */
inline thread_local std::uint64_t bytesCopied = 0;
inline thread_local std::uint64_t handlePasses = 0;

inline void
addBytesCopied(std::uint64_t n)
{
    bytesCopied += n;
}

inline void
addHandlePass()
{
    ++handlePasses;
}
} // namespace detail

/** Snapshot of the payload data-path counters. */
struct PayloadStats
{
    std::uint64_t bytesCopied = 0;  ///< real payload bytes memcpy'd
    std::uint64_t handlePasses = 0; ///< buffer handles copied instead
};

/**
 * Read the calling thread's counters (monotonic since the thread
 * started; diff two snapshots).
 */
inline PayloadStats
payloadStats()
{
    return {detail::bytesCopied, detail::handlePasses};
}

/**
 * Immutable refcounted flat payload buffer with small-buffer-optimized
 * inline storage for payloads <= 48 B (one frame) and heap storage
 * beyond.  Copying a PayloadBuf never copies heap payload bytes — it
 * bumps an atomic refcount (or replicates the 48 B inline array, which
 * is part of the handle itself).
 */
class PayloadBuf
{
  public:
    /** Empty payload (an RPC with no argument bytes). */
    PayloadBuf() = default;

    /** Copying constructor: the write-side API edge. */
    PayloadBuf(const void *src, std::size_t len) : _len(len)
    {
        if (len == 0)
            return;
        detail::addBytesCopied(len);
        if (len <= kFramePayload) {
            std::memcpy(_inline.data(), src, len);
            return;
        }
        auto heap = std::make_shared<std::vector<std::uint8_t>>(len);
        std::memcpy(heap->data(), src, len);
        _heap = std::move(heap);
    }

    /** @p len zero bytes (sized-but-unfilled responses). */
    explicit PayloadBuf(std::size_t len) : _len(len)
    {
        if (len == 0)
            return;
        detail::addBytesCopied(len);
        if (len > kFramePayload)
            _heap = std::make_shared<std::vector<std::uint8_t>>(len);
        else
            std::memset(_inline.data(), 0, len);
    }

    PayloadBuf(std::initializer_list<std::uint8_t> bytes)
        : PayloadBuf(bytes.begin() == bytes.end() ? nullptr : bytes.begin(),
                     bytes.size())
    {}

    PayloadBuf(const PayloadBuf &other) : _len(other._len), _heap(other._heap)
    {
        // Heap handles leave the inline array dead weight; copy only
        // the live prefix when it actually carries the payload.
        if (!_heap && _len)
            std::memcpy(_inline.data(), other._inline.data(), _len);
        if (_len)
            detail::addHandlePass();
    }

    PayloadBuf &
    operator=(const PayloadBuf &other)
    {
        if (this == &other)
            return *this;
        _len = other._len;
        _heap = other._heap;
        if (!_heap && _len)
            std::memcpy(_inline.data(), other._inline.data(), _len);
        if (_len)
            detail::addHandlePass();
        return *this;
    }

    PayloadBuf(PayloadBuf &&other) noexcept
        : _len(other._len), _heap(std::move(other._heap))
    {
        if (!_heap && _len)
            std::memcpy(_inline.data(), other._inline.data(), _len);
    }

    PayloadBuf &
    operator=(PayloadBuf &&other) noexcept
    {
        _len = other._len;
        _heap = std::move(other._heap);
        if (!_heap && _len)
            std::memcpy(_inline.data(), other._inline.data(), _len);
        return *this;
    }

    /** Buffer whose payload is the bytes of POD @p value. */
    template <typename T>
    static PayloadBuf
    ofPod(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        return PayloadBuf(&value, sizeof(T));
    }

    /**
     * Adopt already-materialized bytes without recounting them as a
     * copy (the caller gathered them and did its own accounting).
     */
    static PayloadBuf
    adopt(std::vector<std::uint8_t> &&bytes)
    {
        PayloadBuf buf;
        buf._len = bytes.size();
        if (buf._len == 0)
            return buf;
        if (buf._len <= kFramePayload) {
            std::memcpy(buf._inline.data(), bytes.data(), buf._len);
            return buf;
        }
        buf._heap = std::make_shared<std::vector<std::uint8_t>>(
            std::move(bytes));
        return buf;
    }

    const std::uint8_t *
    data() const
    {
        return _heap ? _heap->data() : _inline.data();
    }

    std::size_t size() const { return _len; }
    bool empty() const { return _len == 0; }

    /** Read-only byte access; the buffer is immutable by design. */
    std::uint8_t operator[](std::size_t i) const { return data()[i]; }

    /** True when the bytes live inline in the handle (<= 48 B). */
    bool inlined() const { return !_heap; }

    /** Heap refcount (0 for inline/empty buffers) — test hook. */
    long heapUseCount() const { return _heap ? _heap.use_count() : 0; }

    /** True when both handles reference the same heap bytes. */
    bool
    sharesBufferWith(const PayloadBuf &other) const
    {
        return _heap && _heap == other._heap;
    }

    bool
    operator==(const PayloadBuf &other) const
    {
        if (_len != other._len)
            return false;
        return _len == 0 ||
            std::memcmp(data(), other.data(), _len) == 0;
    }

    bool
    operator==(const std::vector<std::uint8_t> &bytes) const
    {
        if (_len != bytes.size())
            return false;
        return _len == 0 || std::memcmp(data(), bytes.data(), _len) == 0;
    }

  private:
    std::size_t _len = 0;
    // Deliberately NOT value-initialized: heap handles never read it,
    // and zeroing 48 B per handle construction was measurable on the
    // frame hot path.  Every inline path writes before reading.
    std::array<std::uint8_t, kFramePayload> _inline;
    std::shared_ptr<const std::vector<std::uint8_t>> _heap;
};

/**
 * A cheap slice of a PayloadBuf: handle + offset + length.  Keeps the
 * underlying buffer alive; copying a view is a handle pass, never a
 * byte copy.
 */
class PayloadView
{
  public:
    /** Empty view (frames with no live payload bytes, e.g. ACKs). */
    PayloadView() = default;

    PayloadView(PayloadBuf buf, std::size_t offset, std::size_t len)
        : _buf(std::move(buf)), _off(offset), _len(len)
    {}

    const std::uint8_t *data() const { return _buf.data() + _off; }
    std::size_t size() const { return _len; }

    /** Byte @p i of the slice; reads 0 beyond the end (wire padding). */
    std::uint8_t
    byteAt(std::size_t i) const
    {
        return i < _len ? _buf.data()[_off + i] : 0;
    }

    const PayloadBuf &buffer() const { return _buf; }
    std::size_t offset() const { return _off; }

  private:
    PayloadBuf _buf;
    std::size_t _off = 0;
    std::size_t _len = 0;
};

} // namespace dagger::proto

#endif // DAGGER_PROTO_PAYLOAD_HH
