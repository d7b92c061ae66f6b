/**
 * @file
 * Implementation of string utilities.
 */

#include "support/strings.hh"

#include <cmath>
#include <cstdio>

namespace robox
{

std::string
formatDouble(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    return buf;
}

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
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

std::string
jsonNumber(double value)
{
    if (std::isnan(value))
        return "\"nan\"";
    if (std::isinf(value))
        return value > 0 ? "\"inf\"" : "\"-inf\"";
    return formatDouble(value);
}

} // namespace robox
