/**
 * @file
 * Unit tests for the support library: logging/error discipline and
 * string utilities.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "support/logging.hh"
#include "support/strings.hh"

namespace robox
{
namespace
{

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config value {}", 42), FatalError);
}

TEST(Logging, FatalMessageFormatsPositionally)
{
    try {
        fatal("expected {} got {}", "foo", 7);
        FAIL() << "fatal() returned";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "expected foo got 7");
    }
}

TEST(Logging, FormatHandlesMissingPlaceholders)
{
    EXPECT_EQ(detail::format("a {} b", 1, 2), "a 1 b 2");
    EXPECT_EQ(detail::format("no placeholders"), "no placeholders");
    EXPECT_EQ(detail::format("{} {} {}", 1), "1 {} {}");
}

TEST(Logging, WarnAndInformDoNotThrow)
{
    EXPECT_NO_THROW(warn("a warning: {}", 1));
    EXPECT_NO_THROW(inform("an info message"));
}

TEST(Strings, FormatDoubleRoundTrips)
{
    EXPECT_EQ(formatDouble(1.5), "1.5");
    EXPECT_EQ(formatDouble(-3.0), "-3");
    double v = 0.1234567890123;
    EXPECT_NEAR(std::stod(formatDouble(v)), v, 1e-12);
}

TEST(Strings, JsonEscape)
{
    EXPECT_EQ(jsonEscape("plain text"), "plain text");
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("nl\ntab\tcr\r"), "nl\\ntab\\tcr\\r");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
    EXPECT_EQ(jsonEscape(""), "");
}

TEST(Strings, JsonNumberHandlesNonFinite)
{
    EXPECT_EQ(jsonNumber(1.5), "1.5");
    EXPECT_EQ(jsonNumber(0.0), "0");
    EXPECT_EQ(jsonNumber(std::nan("")), "\"nan\"");
    EXPECT_EQ(jsonNumber(HUGE_VAL), "\"inf\"");
    EXPECT_EQ(jsonNumber(-HUGE_VAL), "\"-inf\"");
}

} // namespace
} // namespace robox
