/**
 * @file
 * Deterministic random number generation for workloads and models.
 *
 * Uses xoshiro256** seeded via splitmix64 — fast, high quality, and
 * fully reproducible across platforms (unlike std::default_random_engine
 * or libstdc++ distribution implementations, which we avoid so that two
 * builds produce identical workloads).
 */

#ifndef DAGGER_SIM_RNG_HH
#define DAGGER_SIM_RNG_HH

#include <array>
#include <cmath>
#include <cstdint>

namespace dagger::sim {

/** Deterministic PRNG with convenience distributions. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x6461676765720001ull) { reseed(seed); }

    /** Re-seed; expands the seed through splitmix64. */
    void reseed(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t next64();

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next64() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound) (bound > 0). */
    std::uint64_t range(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    between(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + range(hi - lo + 1);
    }

    /** Bernoulli trial with probability @p p. */
    bool chance(double p) { return uniform() < p; }

    /** Exponentially distributed value with the given mean. */
    double
    exponential(double mean)
    {
        double u = uniform();
        // Guard against log(0).
        if (u <= 0.0)
            u = 0x1.0p-53;
        return -mean * std::log(u);
    }

  private:
    std::array<std::uint64_t, 4> _s{};
};

/**
 * Zipfian generator over [0, n) with skew theta, using the standard
 * Gray et al. rejection-free formulation (as used by YCSB and the MICA
 * evaluation).  theta in [0, 1); theta=0.99 matches the paper's KVS
 * workloads, 0.9999 the high-skew variant.
 */
class ZipfianGenerator
{
  public:
    ZipfianGenerator(std::uint64_t n, double theta,
                     std::uint64_t seed = 0x7a697066ull);

    /** Next sample in [0, n). */
    std::uint64_t next();

    std::uint64_t n() const { return _n; }

  private:
    double zeta(std::uint64_t n, double theta) const;

    std::uint64_t _n;
    double _theta;
    double _alpha;
    double _zetan;
    double _eta;
    Rng _rng;
};

} // namespace dagger::sim

#endif // DAGGER_SIM_RNG_HH
