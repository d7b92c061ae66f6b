/**
 * @file
 * Small string utilities shared across the RoboX toolchain.
 */

#ifndef ROBOX_SUPPORT_STRINGS_HH
#define ROBOX_SUPPORT_STRINGS_HH

#include <string>

namespace robox
{

/**
 * Render a double with enough precision to round-trip, trimming
 * trailing zeros for readability in disassembly and reports.
 */
std::string formatDouble(double value);

/**
 * Escape a string for embedding inside a JSON string literal:
 * backslash, double quote, and control characters (as \uXXXX). The
 * result does not include the surrounding quotes.
 */
std::string jsonEscape(const std::string &s);

/**
 * Render a double as a JSON value token. Finite values use
 * formatDouble(); NaN/Inf — which bare JSON cannot represent — are
 * emitted as the quoted strings "nan", "inf", and "-inf" so a poisoned
 * statistic stays loadable (and greppable) instead of corrupting the
 * document.
 */
std::string jsonNumber(double value);

} // namespace robox

#endif // ROBOX_SUPPORT_STRINGS_HH
