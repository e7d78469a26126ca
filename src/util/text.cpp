#include "util/text.hpp"

#include <charconv>
#include <iomanip>
#include <limits>
#include <sstream>

namespace wss::util {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += ' ';
            else
                out += c;
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10)
       << v;
    return os.str();
}

std::string
formatDouble(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
hexString(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

} // namespace wss::util
