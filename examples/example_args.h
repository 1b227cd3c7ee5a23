/**
 * @file
 * Tiny argv helpers shared by the example binaries (bpmon,
 * perf_daemon, shim_reader, pcie_scheduler): strict numeric
 * flag-value parsing — garbage, negatives and out-of-range values are
 * rejected, not clamped — and POSIX shm name validation.  Examples
 * only; the library proper has no argv surface.
 */

#ifndef BPERF_EXAMPLES_EXAMPLE_ARGS_H
#define BPERF_EXAMPLES_EXAMPLE_ARGS_H

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>

namespace bperf {
namespace examples {

/** Parse a non-negative double flag value; false on garbage. */
inline bool
parseDouble(const char *text, double *out)
{
    errno = 0;
    char *end = nullptr;
    *out = std::strtod(text, &end);
    return end != text && *end == '\0' && errno != ERANGE &&
           *out >= 0.0;
}

/** Parse a non-negative integer flag value; false on garbage,
 * negatives, or overflow (no silent wrap/clamp). */
inline bool
parseCount(const char *text, std::size_t *out)
{
    if (text[0] == '-')
        return false; // strtoul would silently wrap negatives
    errno = 0;
    char *end = nullptr;
    const unsigned long v = std::strtoul(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE)
        return false;
    *out = static_cast<std::size_t>(v);
    return true;
}

/**
 * True for a portable POSIX shm name: leading '/', no further '/',
 * short enough for the implementation (NAME_MAX minus the /dev/shm
 * prefix glibc uses).  Rejecting here turns a would-be shm_open
 * failure into a normal usage error.
 */
inline bool
validShmName(const std::string &name)
{
    return name.size() >= 2 && name.size() <= 250 && name[0] == '/' &&
           name.find('/', 1) == std::string::npos;
}

} // namespace examples
} // namespace bperf

#endif // BPERF_EXAMPLES_EXAMPLE_ARGS_H
