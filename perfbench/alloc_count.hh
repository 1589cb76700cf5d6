/**
 * @file
 * Whole-program heap allocation counters.
 *
 * alloc_count.cc replaces the global operator new/delete family in
 * the benchmark binary only, so every allocation the simulator makes
 * while the benchmark runs is counted.  The process is single-threaded
 * while it measures; plain counters are enough.
 */

#ifndef PERFBENCH_ALLOC_COUNT_HH
#define PERFBENCH_ALLOC_COUNT_HH

#include <cstdint>

namespace perfbench {

struct AllocTotals
{
    std::uint64_t count = 0; ///< calls to any operator new
    std::uint64_t bytes = 0; ///< bytes requested by those calls
};

/** Totals since process start. */
AllocTotals allocTotals();

} // namespace perfbench

#endif // PERFBENCH_ALLOC_COUNT_HH
