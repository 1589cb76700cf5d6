#include "sim/stats.hh"

#include <bit>

#include "sim/logging.hh"

namespace dagger::sim {

std::size_t
Histogram::bucketIndex(std::uint64_t value)
{
    if (value < kSubBuckets)
        return static_cast<std::size_t>(value);
    const int msb = 63 - std::countl_zero(value);
    const int shift = msb - kSubBucketBits;
    const auto sub = static_cast<std::size_t>(
        (value >> shift) & (kSubBuckets - 1));
    const auto octave = static_cast<std::size_t>(msb - kSubBucketBits + 1);
    return octave * kSubBuckets + sub;
}

std::uint64_t
Histogram::bucketMidpoint(std::size_t index)
{
    if (index < kSubBuckets)
        return index;
    const std::size_t octave = index / kSubBuckets;
    const std::size_t sub = index % kSubBuckets;
    const int shift = static_cast<int>(octave) - 1;
    const std::uint64_t lo =
        (static_cast<std::uint64_t>(kSubBuckets + sub)) << shift;
    const std::uint64_t width = 1ull << shift;
    return lo + width / 2;
}

void
Histogram::record(std::uint64_t value)
{
    recordMany(value, 1);
}

void
Histogram::recordMany(std::uint64_t value, std::uint64_t n)
{
    if (n == 0)
        return;
    const std::size_t idx = bucketIndex(value);
    if (idx >= _buckets.size())
        _buckets.resize(idx + 1, 0);
    _buckets[idx] += n;
    _count += n;
    _sum += value * n;
    if (value < _min)
        _min = value;
    if (value > _max)
        _max = value;
}

double
Histogram::mean() const
{
    return _count == 0
        ? 0.0
        : static_cast<double>(_sum) / static_cast<double>(_count);
}

std::uint64_t
Histogram::percentile(double p) const
{
    if (_count == 0)
        return 0;
    dagger_assert(p >= 0.0 && p <= 100.0, "bad percentile ", p);
    // Rank of the requested sample (1-based, ceil).
    const double exact = p / 100.0 * static_cast<double>(_count);
    std::uint64_t rank = static_cast<std::uint64_t>(exact);
    if (static_cast<double>(rank) < exact || rank == 0)
        ++rank;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        seen += _buckets[i];
        if (seen >= rank)
            return bucketMidpoint(i);
    }
    return _max;
}

void
Histogram::merge(const Histogram &other)
{
    if (other._buckets.size() > _buckets.size())
        _buckets.resize(other._buckets.size(), 0);
    for (std::size_t i = 0; i < other._buckets.size(); ++i)
        _buckets[i] += other._buckets[i];
    _count += other._count;
    _sum += other._sum;
    if (other._count) {
        if (other._min < _min)
            _min = other._min;
        if (other._max > _max)
            _max = other._max;
    }
}

void
Histogram::reset()
{
    _buckets.clear();
    _count = 0;
    _sum = 0;
    _min = std::numeric_limits<std::uint64_t>::max();
    _max = 0;
}

} // namespace dagger::sim
