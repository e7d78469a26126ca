/**
 * @file
 * Strict CLI value parsing.
 *
 * The same contract as WSS_JOBS (exec::ThreadPool): the whole string
 * must be the value — "8x", "", " 4", "+4" and "0.1xyz" are all
 * rejected, as is anything outside the caller's range. The difference
 * is the failure mode: an environment knob falls back with a warning
 * (a typo should not kill a long campaign), but an explicit
 * command-line argument is a stated intent, so a malformed one is a
 * fatal error — silently running with a different seed or rank count
 * than the user asked for would poison every artifact downstream.
 */

#ifndef WSS_UTIL_PARSE_HPP
#define WSS_UTIL_PARSE_HPP

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "util/logging.hpp"

namespace wss::util {

/**
 * Parse @p value as a decimal integer in [@p min, @p max]. fatal() —
 * naming @p what and echoing the offending text — on anything else:
 * empty, non-numeric, trailing junk, a '+' sign, whitespace, or out
 * of range. A leading '-' is accepted (and then range-checked).
 */
inline std::int64_t
parseInt(const std::string &value, const char *what,
         std::int64_t min = 1, std::int64_t max = INT64_MAX)
{
    const char *text = value.c_str();
    const char *digits = text[0] == '-' ? text + 1 : text;
    char *end = nullptr;
    errno = 0;
    const long long n = std::strtoll(text, &end, 10);
    // strtoll alone would accept " 4", "+4" and "8x"; require the
    // value to be exactly an optional '-' and a string of digits.
    if (digits[0] < '0' || digits[0] > '9' || errno != 0 ||
        *end != '\0' || n < min || n > max)
        fatal(what, "='", value, "' is not ",
              min == 1 ? "a positive integer" : "an integer", " (",
              min, "..", max, ")");
    return static_cast<std::int64_t>(n);
}

/**
 * Parse @p value as a finite decimal number in [@p min, @p max].
 * fatal() — naming @p what and echoing the offending text — on
 * empty, leading whitespace, trailing junk, nan/inf, overflow, or
 * out of range.
 */
inline double
parseDouble(const std::string &value, const char *what, double min,
            double max)
{
    const char *text = value.c_str();
    char *end = nullptr;
    errno = 0;
    const double x = std::strtod(text, &end);
    const bool numeric = (text[0] >= '0' && text[0] <= '9') ||
                         text[0] == '-' || text[0] == '.';
    if (!numeric || errno != 0 || *end != '\0' || !std::isfinite(x) ||
        x < min || x > max)
        fatal(what, "='", value, "' is not a finite number (", min,
              "..", max, ")");
    return x;
}

} // namespace wss::util

#endif // WSS_UTIL_PARSE_HPP
