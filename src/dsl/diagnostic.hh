/**
 * @file
 * Source diagnostics for the RoboX DSL frontend.
 *
 * The checked lexer/parser entry points (tokenizeChecked,
 * parseChecked) report problems by collecting Diagnostic records
 * instead of throwing, so embedding tools (editors, batch validators)
 * can surface every lexical error in one pass and keep running. The
 * classic tokenize()/parseProgram() entry points remain
 * fatal()-on-first-error wrappers around the same machinery.
 */

#ifndef ROBOX_DSL_DIAGNOSTIC_HH
#define ROBOX_DSL_DIAGNOSTIC_HH

#include <string>
#include <vector>

namespace robox::dsl
{

/** One frontend error with its source location. */
struct Diagnostic
{
    int line = 0;
    /** 1-based column; 0 when only the line is known. */
    int column = 0;
    /** Fully formatted message, e.g. "parse error at 3:5: ...". */
    std::string message;
};

} // namespace robox::dsl

#endif // ROBOX_DSL_DIAGNOSTIC_HH
