/**
 * @file
 * Error / status reporting helpers, modeled on gem5's logging.hh.
 *
 * panic(): an internal invariant was violated (simulator bug) -> abort().
 * fatal(): the user configured something impossible -> exit(1).
 * warn(): a status message on stderr, never stops the run.
 */

#ifndef DAGGER_SIM_LOGGING_HH
#define DAGGER_SIM_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>

namespace dagger::sim {

namespace detail {

/** Fold any streamable argument pack into one string. */
template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);

} // namespace detail

} // namespace dagger::sim

/** Abort: simulator invariant violated (a bug in this codebase). */
#define dagger_panic(...) \
    ::dagger::sim::detail::panicImpl(__FILE__, __LINE__, \
        ::dagger::sim::detail::format(__VA_ARGS__))

/** Exit(1): impossible user configuration, not a simulator bug. */
#define dagger_fatal(...) \
    ::dagger::sim::detail::fatalImpl(__FILE__, __LINE__, \
        ::dagger::sim::detail::format(__VA_ARGS__))

/** Non-fatal warning on stderr. */
#define dagger_warn(...) \
    ::dagger::sim::detail::warnImpl(::dagger::sim::detail::format(__VA_ARGS__))

/** panic() unless the condition holds. */
#define dagger_assert(cond, ...) \
    do { \
        if (!(cond)) { \
            ::dagger::sim::detail::panicImpl(__FILE__, __LINE__, \
                ::dagger::sim::detail::format("assertion '" #cond \
                    "' failed. ", ##__VA_ARGS__)); \
        } \
    } while (0)

#endif // DAGGER_SIM_LOGGING_HH
