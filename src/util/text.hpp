/**
 * @file
 * Text helpers shared by the hand-written CSV/JSON artifact writers
 * (util/json.hpp is the matching reader).
 *
 * One copy of each, so every artifact formats strings, numbers and
 * hashes the same way: jsonNumber() and formatDouble() both
 * round-trip a double bit-exactly, and byte-identical artifacts
 * across runs and --jobs values depend on that.
 */

#ifndef WSS_UTIL_TEXT_HPP
#define WSS_UTIL_TEXT_HPP

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace wss::util {

/// Minimal JSON string escaping (quotes, backslashes, \n, \t; other
/// control characters become spaces).
std::string jsonEscape(const std::string &s);

/// Full-precision double (max_digits10, stream formatting) that
/// round-trips bit-exactly.
std::string jsonNumber(double v);

/// Shortest text that round-trips @p v bit-exactly (std::to_chars).
std::string formatDouble(double v);

/// Fixed-width "0x%016x": 64-bit hashes do not survive a round-trip
/// through JSON numbers (doubles).
std::string hexString(std::uint64_t v);

/// Copy at most @p cap - 1 chars of @p src into @p dst and
/// NUL-terminate (the fixed-size buffers that crash-time readers walk
/// without allocating). string_view::copy never reads src.data() of
/// an empty view, which may be null.
inline void
copyTruncated(char *dst, std::size_t cap, std::string_view src)
{
    dst[src.copy(dst, cap - 1)] = '\0';
}

/// Wall-clock seconds since @p start (the timing fields of campaign
/// artifacts).
inline double
elapsedSeconds(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace wss::util

#endif // WSS_UTIL_TEXT_HPP
