/**
 * @file
 * Reused, vector-backed storage for per-RPC and per-frame state.
 *
 * The paper's hardware never allocates per RPC: TX/RX rings hand
 * entries back through a free-buffer FIFO and the request buffer
 * recycles its slots the same way (§4.4).  The simulator's hot path
 * mirrors that with two containers whose storage grows to the peak
 * amount of work in flight and is then reused forever:
 *
 *  - RingFifo<T>: a circular FIFO.  Popped slots keep their storage;
 *    pushSlot() hands back a slot for in-place overwrite, so a frame
 *    can be written straight into ring storage.
 *  - SlotPool<T>: an index-addressed free list.  A scheduled event
 *    parks its payload in a slot and captures only the slot index,
 *    which keeps the closure inside EventClosure's inline buffer.
 *
 * Both are plain std::vector underneath (no placement new); a growth
 * step is the only allocation, so steady state allocates nothing.
 */

#ifndef DAGGER_SIM_REUSE_HH
#define DAGGER_SIM_REUSE_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace dagger::sim {

/**
 * Circular FIFO over a power-of-two std::vector.  Grows by doubling
 * when full; reserve() sizes it up front when the bound is known.
 * T must be default-constructible and move-assignable.
 */
template <typename T>
class RingFifo
{
  public:
    RingFifo() = default;

    /** Pre-size for @p capacity elements (rounded up to a power of 2). */
    explicit RingFifo(std::size_t capacity) { reserve(capacity); }

    std::size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

    T &front() { return _buf[_head]; }

    /** Grow storage to hold at least @p n elements, keeping order. */
    void
    reserve(std::size_t n)
    {
        if (n <= _buf.size())
            return;
        std::vector<T> grown(std::bit_ceil(n));
        for (std::size_t i = 0; i < _size; ++i)
            grown[i] = std::move(_buf[(_head + i) & _mask]);
        _buf = std::move(grown);
        _head = 0;
        _mask = _buf.size() - 1;
    }

    /**
     * Append a slot and return it for in-place overwrite.  The slot
     * holds whatever a previous occupant left behind (a moved-from or
     * reset value); the caller assigns every field it relies on.
     */
    T &
    pushSlot()
    {
        if (_size == _buf.size())
            reserve(std::max<std::size_t>(4, 2 * _buf.size()));
        T &slot = _buf[(_head + _size) & _mask];
        ++_size;
        return slot;
    }

    void push_back(T &&value) { pushSlot() = std::move(value); }

    /** Move the front element out and pop it. */
    T
    take()
    {
        dagger_assert(_size > 0, "take from an empty RingFifo");
        T value = std::move(_buf[_head]);
        advance();
        return value;
    }

    /** Drop the front element (its slot is reset, releasing handles). */
    void
    pop_front()
    {
        dagger_assert(_size > 0, "pop from an empty RingFifo");
        _buf[_head] = T();
        advance();
    }

  private:
    void
    advance()
    {
        _head = (_head + 1) & _mask;
        --_size;
    }

    std::vector<T> _buf;
    std::size_t _head = 0;
    std::size_t _size = 0;
    std::size_t _mask = 0;
};

/**
 * Index-addressed slots with a LIFO free list.  put() parks a value
 * and returns its index; take() moves it out and frees the index.
 * Storage grows to the peak number of live slots and is reused.
 */
template <typename T>
class SlotPool
{
  public:
    std::uint32_t
    put(T value)
    {
        if (_free.empty()) {
            _items.push_back(std::move(value));
            return static_cast<std::uint32_t>(_items.size() - 1);
        }
        const std::uint32_t i = _free.back();
        _free.pop_back();
        _items[i] = std::move(value);
        return i;
    }

    T
    take(std::uint32_t i)
    {
        dagger_assert(i < _items.size(), "bad slot ", i);
        // The moved-from value stays behind; it holds no handles.
        T value = std::move(_items[i]);
        _free.push_back(i);
        return value;
    }

    T &operator[](std::uint32_t i) { return _items[i]; }

  private:
    std::vector<T> _items;
    std::vector<std::uint32_t> _free;
};

} // namespace dagger::sim

#endif // DAGGER_SIM_REUSE_HH
