#include "sim/rng.hh"

#include "sim/logging.hh"

namespace dagger::sim {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

void
Rng::reseed(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : _s)
        word = splitmix64(sm);
}

std::uint64_t
Rng::next64()
{
    const std::uint64_t result = rotl(_s[1] * 5, 7) * 9;
    const std::uint64_t t = _s[1] << 17;
    _s[2] ^= _s[0];
    _s[3] ^= _s[1];
    _s[1] ^= _s[2];
    _s[0] ^= _s[3];
    _s[2] ^= t;
    _s[3] = rotl(_s[3], 45);
    return result;
}

std::uint64_t
Rng::range(std::uint64_t bound)
{
    dagger_assert(bound > 0, "Rng::range with zero bound");
    // Lemire's nearly-divisionless method would be faster; the simple
    // rejection loop keeps the output identical on all platforms.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
        std::uint64_t r = next64();
        if (r >= threshold)
            return r % bound;
    }
}

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta,
                                   std::uint64_t seed)
    : _n(n), _theta(theta), _rng(seed)
{
    dagger_assert(n > 0, "ZipfianGenerator over empty key space");
    dagger_assert(theta >= 0.0 && theta < 1.0,
                  "Zipf theta must be in [0,1), got ", theta);
    _zetan = zeta(n, theta);
    _alpha = 1.0 / (1.0 - theta);
    const double zeta2 = zeta(2, theta);
    _eta = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / _zetan);
}

double
ZipfianGenerator::zeta(std::uint64_t n, double theta) const
{
    // Exact sum for small n; for the paper's 10M/200M key spaces use the
    // Euler–Maclaurin approximation so construction stays O(1)-ish.
    constexpr std::uint64_t kExactLimit = 1u << 20;
    double sum = 0.0;
    if (n <= kExactLimit) {
        for (std::uint64_t i = 1; i <= n; ++i)
            sum += 1.0 / std::pow(static_cast<double>(i), theta);
        return sum;
    }
    for (std::uint64_t i = 1; i <= kExactLimit; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    const double a = static_cast<double>(kExactLimit);
    const double b = static_cast<double>(n);
    // Integral of x^-theta from a to b plus endpoint correction.
    sum += (std::pow(b, 1.0 - theta) - std::pow(a, 1.0 - theta)) /
           (1.0 - theta);
    sum += 0.5 * (std::pow(b, -theta) - std::pow(a, -theta));
    return sum;
}

std::uint64_t
ZipfianGenerator::next()
{
    const double u = _rng.uniform();
    const double uz = u * _zetan;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, _theta))
        return 1;
    const auto idx = static_cast<std::uint64_t>(
        static_cast<double>(_n) *
        std::pow(_eta * u - _eta + 1.0, _alpha));
    return idx >= _n ? _n - 1 : idx;
}

} // namespace dagger::sim
