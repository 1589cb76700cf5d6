/**
 * @file
 * Statistics primitives: counters and HDR-style latency histograms.
 *
 * The histogram uses logarithmic buckets (32 sub-buckets per power of
 * two), giving <= ~3% relative error on percentile reads over a range
 * of 1 tick .. 2^63 ticks with a fixed 64 KB footprint.  That error is
 * far below the run-to-run variation of the systems we model.
 */

#ifndef DAGGER_SIM_STATS_HH
#define DAGGER_SIM_STATS_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/time.hh"

namespace dagger::sim {

/**
 * A monotonically increasing counter.  Its name is the one it is
 * registered under in a MetricRegistry.
 */
class Counter
{
  public:
    void inc(std::uint64_t by = 1) { _value += by; }
    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/**
 * Log-bucketed histogram for latency-like values.
 *
 * Values are recorded as raw integers (ticks by convention).  The
 * percentile() accessor returns a representative value from the bucket
 * containing the requested rank.
 */
class Histogram
{
  public:
    static constexpr int kSubBucketBits = 5; // 32 sub-buckets / octave
    static constexpr int kSubBuckets = 1 << kSubBucketBits;

    /** Record one sample. */
    void record(std::uint64_t value);

    /** Record @p n identical samples. */
    void recordMany(std::uint64_t value, std::uint64_t n);

    std::uint64_t count() const { return _count; }
    std::uint64_t min() const { return _count ? _min : 0; }
    std::uint64_t max() const { return _max; }
    double mean() const;

    /**
     * Value at percentile @p p in [0, 100].  p=50 is the median.
     * Returns 0 on an empty histogram.
     */
    std::uint64_t percentile(double p) const;

    /** Merge another histogram into this one. */
    void merge(const Histogram &other);

    /** Forget all samples. */
    void reset();

  private:
    static std::size_t bucketIndex(std::uint64_t value);
    static std::uint64_t bucketMidpoint(std::size_t index);

    std::vector<std::uint64_t> _buckets; // grown lazily
    std::uint64_t _count = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _min = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t _max = 0;
};

} // namespace dagger::sim

#endif // DAGGER_SIM_STATS_HH
