/**
 * @file
 * Tests for the RoboX DSL frontend: lexer, parser, and semantic
 * analysis, including the paper's mobile-robot example (Sec. IV) and a
 * broad set of diagnostic cases.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "dsl/lexer.hh"
#include "dsl/parser.hh"
#include "dsl/format.hh"
#include "dsl/sema.hh"
#include "support/hash.hh"
#include "support/logging.hh"

namespace robox::dsl
{
namespace
{

// The paper's running example (Sec. IV-A/B), lightly completed.
const char *kMobileRobotSource = R"(
System MobileRobot( param vel_bound, param ang_bound ) {
  // system states
  state pos[2], angle;
  // system inputs
  input vel, ang_vel;
  // system dynamics
  pos[0].dt = vel * cos(angle);
  pos[1].dt = vel * sin(angle);
  angle.dt = ang_vel;
  // physical constraints
  vel.lower_bound <= -vel_bound;
  vel.upper_bound <= vel_bound;
  ang_vel.lower_bound <= -ang_bound;
  ang_vel.upper_bound <= ang_bound;

  Task moveTo(
      reference desired_x,
      reference desired_y,
      param weight,
      param radius) {
    // penalize distance from target
    penalty target_x, target_y;
    target_x.terminal = pos[0] - desired_x;
    target_y.terminal = pos[1] - desired_y;
    target_x.weight <= weight;
    target_y.weight <= weight;
    // constraints on position
    constraint pos_bound;
    pos_bound.running = pos[0]^2 + pos[1]^2;
    pos_bound.upper_bound <= radius^2;
  }
}

reference desired_x;
reference desired_y;
MobileRobot robot(0.9, 0.5);
robot.moveTo(desired_x, desired_y, 10, 100);
)";

TEST(Lexer, TokenizesOperatorsAndKeywords)
{
    auto tokens = tokenize("state x; x.dt = -3.5e-2 * x ^ 2; x <= 1;");
    ASSERT_GE(tokens.size(), 5u);
    EXPECT_EQ(tokens[0].kind, TokenKind::KwState);
    EXPECT_EQ(tokens[1].kind, TokenKind::Identifier);
    EXPECT_EQ(tokens[1].text, "x");
    EXPECT_EQ(tokens.back().kind, TokenKind::EndOfFile);
}

TEST(Lexer, NumbersParseWithExponents)
{
    auto tokens = tokenize("1 2.5 3e2 4.5E-1 .25");
    ASSERT_EQ(tokens.size(), 6u);
    EXPECT_DOUBLE_EQ(tokens[0].number, 1.0);
    EXPECT_DOUBLE_EQ(tokens[1].number, 2.5);
    EXPECT_DOUBLE_EQ(tokens[2].number, 300.0);
    EXPECT_DOUBLE_EQ(tokens[3].number, 0.45);
    EXPECT_DOUBLE_EQ(tokens[4].number, 0.25);
}

TEST(Lexer, DotAfterIntegerIsFieldAccess)
{
    // "pos[0].dt" must lex '0' then '.' then 'dt', not "0."-something.
    auto tokens = tokenize("pos[0].dt");
    ASSERT_EQ(tokens.size(), 7u);
    EXPECT_EQ(tokens[2].kind, TokenKind::Number);
    EXPECT_EQ(tokens[4].kind, TokenKind::Dot);
    EXPECT_EQ(tokens[5].text, "dt");
}

TEST(Lexer, CommentsAreSkipped)
{
    auto tokens = tokenize("a // comment with symbols +-*/\nb");
    ASSERT_EQ(tokens.size(), 3u);
    EXPECT_EQ(tokens[0].text, "a");
    EXPECT_EQ(tokens[1].text, "b");
}

TEST(Lexer, TracksLineAndColumn)
{
    auto tokens = tokenize("a\n  b");
    EXPECT_EQ(tokens[0].line, 1);
    EXPECT_EQ(tokens[0].column, 1);
    EXPECT_EQ(tokens[1].line, 2);
    EXPECT_EQ(tokens[1].column, 3);
}

TEST(Lexer, RejectsStrayCharacters)
{
    EXPECT_THROW(tokenize("a ? b"), FatalError);
    EXPECT_THROW(tokenize("a < b"), FatalError);
}

TEST(Parser, ParsesPaperExample)
{
    ProgramAst prog = parseProgram(kMobileRobotSource);
    ASSERT_EQ(prog.systems.size(), 1u);
    const SystemDefAst &sys = prog.systems[0];
    EXPECT_EQ(sys.name, "MobileRobot");
    ASSERT_EQ(sys.params.size(), 2u);
    EXPECT_EQ(sys.params[0].name, "vel_bound");
    ASSERT_EQ(sys.tasks.size(), 1u);
    EXPECT_EQ(sys.tasks[0].name, "moveTo");
    ASSERT_EQ(sys.tasks[0].params.size(), 4u);
    EXPECT_EQ(sys.tasks[0].params[0].kind, DeclKind::Reference);
    EXPECT_EQ(sys.tasks[0].params[2].kind, DeclKind::Param);
    ASSERT_EQ(prog.references.size(), 2u);
    ASSERT_EQ(prog.instances.size(), 1u);
    EXPECT_EQ(prog.instances[0].instanceName, "robot");
    ASSERT_EQ(prog.taskCalls.size(), 1u);
    EXPECT_EQ(prog.taskCalls[0].taskName, "moveTo");
    EXPECT_EQ(prog.taskCalls[0].args.size(), 4u);
}

TEST(Parser, OperatorPrecedence)
{
    ProgramAst prog = parseProgram(
        "System S(){ state x; input u; x.dt = 1 + 2 * u ^ 2; }\n"
        "S s(); s.t();");
    // 1 + (2 * (u^2)): top is '+'.
    const AssignStmtAst &assign = *prog.systems[0].body[2].assign;
    ASSERT_EQ(assign.rhs->kind, ExprAstKind::Binary);
    EXPECT_EQ(assign.rhs->op, '+');
    EXPECT_EQ(assign.rhs->rhs->op, '*');
    EXPECT_EQ(assign.rhs->rhs->rhs->op, '^');
}

TEST(Parser, GroupOpSyntax)
{
    ProgramAst prog = parseProgram(
        "System S(){ state x[2]; input u; range i[0:2];\n"
        "  x[i].dt = sum[i](x[i] * u); }\nS s(); s.t();");
    const AssignStmtAst &assign = *prog.systems[0].body[3].assign;
    ASSERT_EQ(assign.rhs->kind, ExprAstKind::GroupOp);
    EXPECT_EQ(assign.rhs->name, "sum");
    ASSERT_EQ(assign.rhs->groupVars.size(), 1u);
    EXPECT_EQ(assign.rhs->groupVars[0], "i");
}

TEST(Parser, RejectsFractionalExponent)
{
    EXPECT_THROW(parseProgram("System S(){ state x; x.dt = x ^ 2.5; }"),
                 FatalError);
}

TEST(Parser, RejectsUnknownField)
{
    EXPECT_THROW(
        parseProgram("System S(){ state x; x.dtt = x; }"), FatalError);
}

TEST(Parser, RejectsRangeBoundsOutsideRangeDecl)
{
    EXPECT_THROW(parseProgram("System S(){ state x[0:2]; }"), FatalError);
}

TEST(Parser, ReportsLocationInErrors)
{
    try {
        parseProgram("System S(){\n  state x\n}");
        FAIL() << "expected parse error";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("3:1"), std::string::npos)
            << e.what();
    }
}

TEST(Sema, PaperExampleProducesExpectedModel)
{
    ModelSpec spec = analyzeSource(kMobileRobotSource);
    EXPECT_EQ(spec.systemName, "MobileRobot");
    EXPECT_EQ(spec.taskName, "moveTo");
    EXPECT_EQ(spec.nx(), 3);
    EXPECT_EQ(spec.nu(), 2);
    EXPECT_EQ(spec.nref(), 2);
    EXPECT_EQ(spec.stateNames[0], "pos[0]");
    EXPECT_EQ(spec.stateNames[2], "angle");
    EXPECT_EQ(spec.inputNames[0], "vel");

    // Input bounds from the instantiation parameters (0.9, 0.5).
    EXPECT_DOUBLE_EQ(spec.inputLower[0], -0.9);
    EXPECT_DOUBLE_EQ(spec.inputUpper[0], 0.9);
    EXPECT_DOUBLE_EQ(spec.inputLower[1], -0.5);
    EXPECT_DOUBLE_EQ(spec.inputUpper[1], 0.5);
    EXPECT_EQ(spec.numBoundConstraints(), 4);

    // Penalties: terminal, weight 10.
    ASSERT_EQ(spec.penalties.size(), 2u);
    EXPECT_TRUE(spec.penalties[0].terminal);
    EXPECT_DOUBLE_EQ(spec.penalties[0].weight, 10.0);
    EXPECT_EQ(spec.numTerminalPenalties(), 2);
    EXPECT_EQ(spec.numRunningPenalties(), 0);

    // Constraint: running, upper bound radius^2 = 10000.
    ASSERT_EQ(spec.constraints.size(), 1u);
    EXPECT_FALSE(spec.constraints[0].terminal);
    EXPECT_DOUBLE_EQ(spec.constraints[0].upper, 10000.0);

    // Dynamics: dx0/dt = vel*cos(angle). Vars: [x0 x1 angle vel ang_vel
    // desired_x desired_y].
    std::vector<double> env = {1.0, 2.0, 0.5, 0.7, 0.2, 0.0, 0.0};
    EXPECT_NEAR(spec.dynamics[0].eval(env), 0.7 * std::cos(0.5), 1e-14);
    EXPECT_NEAR(spec.dynamics[1].eval(env), 0.7 * std::sin(0.5), 1e-14);
    EXPECT_NEAR(spec.dynamics[2].eval(env), 0.2, 1e-14);

    // Penalty expr: pos[0] - desired_x with desired_x a reference var.
    env[spec.refVarId(0)] = 10.0;
    EXPECT_NEAR(spec.penalties[0].expr.eval(env), 1.0 - 10.0, 1e-14);
}

TEST(Sema, GroupOpsExpandAcrossRanges)
{
    const char *src = R"(
System S() {
  state x[3];
  input u;
  range i[0:3];
  x[i].dt = u * x[i];
  Task t(param w) {
    penalty p;
    p.running = norm[i](x[i]);
    p.weight <= w;
    constraint c;
    c.running = sum[i](x[i]);
    c.upper_bound <= 5;
  }
}
S s(); s.t(2);
)";
    ModelSpec spec = analyzeSource(src);
    EXPECT_EQ(spec.nx(), 3);
    // norm = sqrt(x0^2+x1^2+x2^2) at (1,2,2) = 3.
    std::vector<double> env = {1.0, 2.0, 2.0, 0.0};
    EXPECT_NEAR(spec.penalties[0].expr.eval(env), 3.0, 1e-14);
    EXPECT_NEAR(spec.constraints[0].expr.eval(env), 5.0, 1e-14);
    EXPECT_DOUBLE_EQ(spec.penalties[0].weight, 2.0);
    // Vector dynamics expansion: dxi/dt = u*xi.
    env[3] = 2.0;
    EXPECT_NEAR(spec.dynamics[1].eval(env), 4.0, 1e-14);
}

TEST(Sema, MatrixVectorProductViaNestedRanges)
{
    // x[i].dt = sum[j](R[i][j] * x[j]) from Sec. IV-C, with R an alias
    // substitute: use a 2x2 state matrix.
    const char *src = R"(
System S() {
  state x[2], R[2][2];
  input u;
  range i[0:2], j[0:2];
  x[i].dt = sum[j](R[i][j] * x[j]);
  R[i][j].dt = u;
  Task t() {
    penalty p;
    p.terminal = x[0];
  }
}
S s(); s.t();
)";
    ModelSpec spec = analyzeSource(src);
    ASSERT_EQ(spec.nx(), 6);
    // Var layout: x[0], x[1], R[0][0], R[0][1], R[1][0], R[1][1], u.
    std::vector<double> env = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.0};
    EXPECT_NEAR(spec.dynamics[0].eval(env), 3.0 * 1 + 4.0 * 2, 1e-14);
    EXPECT_NEAR(spec.dynamics[1].eval(env), 5.0 * 1 + 6.0 * 2, 1e-14);
}

TEST(Sema, SymbolicAliasesComposeDynamics)
{
    // fT alias used by a later dynamics expression, as in Eq. (2).
    const char *src = R"(
System S() {
  state z;
  input f1, f2;
  fT = f1^2 + f2^2;
  z.dt = 1 - 0.5 * fT;
  Task t() { penalty p; p.terminal = z; }
}
S s(); s.t();
)";
    ModelSpec spec = analyzeSource(src);
    std::vector<double> env = {0.0, 2.0, 1.0};
    EXPECT_NEAR(spec.dynamics[0].eval(env), 1 - 0.5 * 5.0, 1e-14);
}

TEST(Sema, ImperativeExpressionsFoldParams)
{
    const char *src = R"(
System S( param a ) {
  state x;
  input u;
  param b;
  b <= a * 2 + 1;
  x.dt = u;
  x.lower_bound <= -b;
  x.upper_bound <= sqrt(b + 2);
  Task t() { penalty p; p.terminal = x; }
}
S s(3); s.t();
)";
    ModelSpec spec = analyzeSource(src);
    EXPECT_DOUBLE_EQ(spec.stateLower[0], -7.0);
    EXPECT_DOUBLE_EQ(spec.stateUpper[0], 3.0);
}

TEST(Sema, EqualityConstraint)
{
    const char *src = R"(
System S() {
  state x; input u;
  x.dt = u;
  Task t() {
    penalty p; p.terminal = x;
    constraint c;
    c.terminal = x + u;
    c.equals <= 1.5;
  }
}
S s(); s.t();
)";
    ModelSpec spec = analyzeSource(src);
    ASSERT_EQ(spec.constraints.size(), 1u);
    EXPECT_TRUE(spec.constraints[0].isEquality);
    EXPECT_TRUE(spec.constraints[0].terminal);
    EXPECT_DOUBLE_EQ(spec.constraints[0].equalsValue, 1.5);
}

TEST(Sema, PenaltyArrayExpansion)
{
    const char *src = R"(
System S() {
  state x[2]; input u;
  range i[0:2];
  x[i].dt = u;
  Task t(reference goal) {
    penalty p[2];
    p[i].terminal = x[i] - goal[i];
    p[i].weight <= 3;
  }
}
reference goal[2];
S s(); s.t(goal);
)";
    ModelSpec spec = analyzeSource(src);
    ASSERT_EQ(spec.penalties.size(), 2u);
    EXPECT_EQ(spec.penalties[1].name, "p[1]");
    EXPECT_DOUBLE_EQ(spec.penalties[1].weight, 3.0);
    EXPECT_EQ(spec.nref(), 2);
    // p[1] = x[1] - goal[1].
    std::vector<double> env = {0.0, 4.0, 0.0, 0.0, 1.0};
    EXPECT_NEAR(spec.penalties[1].expr.eval(env), 3.0, 1e-14);
}

TEST(Sema, TaskSelectionByName)
{
    const char *src = R"(
System S() {
  state x; input u;
  x.dt = u;
  Task slow() { penalty p; p.running = x - 1; p.weight <= 0.1; }
  Task fast() { penalty p; p.running = x - 1; p.weight <= 10; }
}
S s();
s.slow();
s.fast();
)";
    ModelSpec def = analyzeSource(src);
    EXPECT_EQ(def.taskName, "slow"); // First call is the default.
    ModelSpec fast = analyzeSource(src, "fast");
    EXPECT_EQ(fast.taskName, "fast");
    EXPECT_DOUBLE_EQ(fast.penalties[0].weight, 10.0);
    EXPECT_THROW(analyzeSource(src, "nope"), FatalError);
}

TEST(Sema, DescribeSummarizesModel)
{
    ModelSpec spec = analyzeSource(kMobileRobotSource);
    std::string text = spec.describe();
    EXPECT_NE(text.find("System MobileRobot"), std::string::npos);
    EXPECT_NE(text.find("pos[0]"), std::string::npos);
    EXPECT_NE(text.find("terminal"), std::string::npos);
    EXPECT_NE(text.find("[-0.9, 0.9]"), std::string::npos);
}

// ---------------------------------------------------------------------
// Formatter.
// ---------------------------------------------------------------------

TEST(Format, ExpressionPrecedenceAndParens)
{
    auto fmt = [](const char *expr_src) {
        std::string src = std::string("System S(){ state x; input u; "
                                      "x.dt = ") + expr_src + "; }";
        ProgramAst prog = parseProgram(src);
        return formatExpr(*prog.systems[0].body[2].assign->rhs);
    };
    EXPECT_EQ(fmt("1 + 2 * u"), "1 + 2 * u");
    EXPECT_EQ(fmt("(1 + 2) * u"), "(1 + 2) * u");
    EXPECT_EQ(fmt("x - (u - 1)"), "x - (u - 1)");
    EXPECT_EQ(fmt("x - u - 1"), "x - u - 1");
    EXPECT_EQ(fmt("-x * u"), "-x * u");
    EXPECT_EQ(fmt("x / (u / 2)"), "x / (u / 2)");
    EXPECT_EQ(fmt("sin(x + u)"), "sin(x + u)");
    EXPECT_EQ(fmt("x ^ 2 + u"), "x ^ 2 + u");
}

TEST(Format, RoundTripPreservesSemantics)
{
    std::string formatted = formatSource(kMobileRobotSource);
    // Idempotent.
    EXPECT_EQ(formatSource(formatted), formatted);

    ModelSpec original = analyzeSource(kMobileRobotSource);
    ModelSpec round = analyzeSource(formatted);
    EXPECT_EQ(round.nx(), original.nx());
    EXPECT_EQ(round.nu(), original.nu());
    EXPECT_EQ(round.penalties.size(), original.penalties.size());
    EXPECT_EQ(round.constraints.size(), original.constraints.size());
    std::vector<double> env = {0.3, -0.4, 0.9, 0.5, 0.1, 0.0, 0.0};
    for (int i = 0; i < original.nx(); ++i) {
        EXPECT_NEAR(round.dynamics[i].eval(env),
                    original.dynamics[i].eval(env), 1e-14)
            << i;
    }
    EXPECT_DOUBLE_EQ(round.inputLower[0], original.inputLower[0]);
    EXPECT_DOUBLE_EQ(round.constraints[0].upper,
                     original.constraints[0].upper);
}

TEST(Format, GroupOpsAndRangesSurvive)
{
    const char *src =
        "System S(){ state x[3]; input u; range i[0:3], j[0:3];\n"
        "  x[i].dt = sum[j](x[j] * u);\n"
        "  Task t(){ penalty p; p.running = norm[i](x[i]); } }\n"
        "S s(); s.t();";
    std::string formatted = formatSource(src);
    EXPECT_NE(formatted.find("range i[0:3], j[0:3];"),
              std::string::npos);
    EXPECT_NE(formatted.find("sum[j](x[j] * u)"), std::string::npos);
    EXPECT_NE(formatted.find("norm[i]"), std::string::npos);
    // Still analyzable.
    ModelSpec spec = analyzeSource(formatted);
    EXPECT_EQ(spec.nx(), 3);
}

// ---------------------------------------------------------------------
// Diagnostics.
// ---------------------------------------------------------------------

struct BadProgram
{
    const char *label;
    const char *source;
};

/** Name each case by its label, so ctest's test names stay stable. */
void
PrintTo(const BadProgram &p, std::ostream *os)
{
    *os << ::testing::PrintToString(std::string(p.label));
}

class SemaDiagnostics : public ::testing::TestWithParam<BadProgram>
{
};

TEST_P(SemaDiagnostics, RejectsIllFormedProgram)
{
    EXPECT_THROW(analyzeSource(GetParam().source), FatalError)
        << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SemaDiagnostics,
    ::testing::Values(
        BadProgram{"no instantiation",
                   "System S(){ state x; input u; x.dt = u; }"},
        BadProgram{"unknown system", "T s(); s.t();"},
        BadProgram{"no task call",
                   "System S(){ state x; input u; x.dt = u; "
                   "Task t(){ penalty p; p.terminal = x; } } S s();"},
        BadProgram{"unknown task",
                   "System S(){ state x; input u; x.dt = u; } S s(); "
                   "s.nope();"},
        BadProgram{"missing dynamics",
                   "System S(){ state x; input u; "
                   "Task t(){ penalty p; p.terminal = x; } } S s(); s.t();"},
        BadProgram{"undeclared name in dynamics",
                   "System S(){ state x; input u; x.dt = q; "
                   "Task t(){ penalty p; p.terminal = x; } } S s(); s.t();"},
        BadProgram{"penalty never assigned",
                   "System S(){ state x; input u; x.dt = u; "
                   "Task t(){ penalty p; } } S s(); s.t();"},
        BadProgram{"constraint without bounds",
                   "System S(){ state x; input u; x.dt = u; "
                   "Task t(){ penalty p; p.terminal = x; constraint c; "
                   "c.running = x; } } S s(); s.t();"},
        BadProgram{"imperative uses state",
                   "System S(){ state x; input u; x.dt = u; "
                   "u.upper_bound <= x; "
                   "Task t(){ penalty p; p.terminal = x; } } S s(); s.t();"},
        BadProgram{"dt on input",
                   "System S(){ state x; input u; x.dt = u; u.dt = x; "
                   "Task t(){ penalty p; p.terminal = x; } } S s(); s.t();"},
        BadProgram{"index out of range",
                   "System S(){ state x[2]; input u; range i[0:2]; "
                   "x[i].dt = u; "
                   "Task t(){ penalty p; p.terminal = x[2]; } } "
                   "S s(); s.t();"},
        BadProgram{"arity mismatch on instantiation",
                   "System S(param a){ state x; input u; x.dt = u; "
                   "Task t(){ penalty p; p.terminal = x; } } S s(); s.t();"},
        BadProgram{"arity mismatch on task call",
                   "System S(){ state x; input u; x.dt = u; "
                   "Task t(param w){ penalty p; p.terminal = x; } } "
                   "S s(); s.t();"},
        BadProgram{"reference arg not a reference",
                   "System S(){ state x; input u; x.dt = u; "
                   "Task t(reference r){ penalty p; p.terminal = x - r; } "
                   "} S s(); s.t(3);"},
        BadProgram{"dynamics assigned twice",
                   "System S(){ state x; input u; x.dt = u; x.dt = u; "
                   "Task t(){ penalty p; p.terminal = x; } } S s(); s.t();"},
        BadProgram{"penalty weight symbolic assign",
                   "System S(){ state x; input u; x.dt = u; "
                   "Task t(){ penalty p; p.terminal = x; p.weight = 2; } "
                   "} S s(); s.t();"},
        BadProgram{"bounds crossed",
                   "System S(){ state x; input u; x.dt = u; "
                   "u.lower_bound <= 1; u.upper_bound <= -1; "
                   "Task t(){ penalty p; p.terminal = x; } } S s(); s.t();"},
        BadProgram{"redeclaration",
                   "System S(){ state x; input x; x.dt = 1; "
                   "Task t(){ penalty p; p.terminal = x; } } S s(); s.t();"},
        BadProgram{"empty range",
                   "System S(){ state x; input u; range i[2:2]; x.dt = u; "
                   "Task t(){ penalty p; p.terminal = x; } } S s(); s.t();"},
        BadProgram{"group over non-range",
                   "System S(){ state x; input u; x.dt = sum[u](x); "
                   "Task t(){ penalty p; p.terminal = x; } } S s(); s.t();"}));

// ---------------------------------------------------------------------
// Checked (diagnostic-collecting) frontend entry points.
// ---------------------------------------------------------------------

TEST(CheckedFrontend, LexerCollectsEveryBadCharacterAndKeepsGoing)
{
    std::vector<Token> tokens;
    std::vector<Diagnostic> diags;
    EXPECT_FALSE(tokenizeChecked("a ? b\n c < d @", &tokens, &diags));
    // All three offenders reported with locations, in source order...
    ASSERT_EQ(3u, diags.size());
    EXPECT_EQ(1, diags[0].line);
    EXPECT_EQ(3, diags[0].column);
    EXPECT_EQ("lex error at 1:3: unexpected character '?'",
              diags[0].message);
    EXPECT_EQ(2, diags[1].line);
    EXPECT_EQ(4, diags[1].column);
    EXPECT_EQ("lex error at 2:4: stray '<' (did you mean '<='?)",
              diags[1].message);
    EXPECT_EQ(2, diags[2].line);
    EXPECT_EQ(8, diags[2].column);
    // ...and the surviving tokens still stream through.
    ASSERT_EQ(5u, tokens.size()); // a b c d EOF
    EXPECT_EQ("a", tokens[0].text);
    EXPECT_EQ("d", tokens[3].text);
    EXPECT_EQ(TokenKind::EndOfFile, tokens.back().kind);

    // A clean source adds nothing.
    diags.clear();
    EXPECT_TRUE(tokenizeChecked("a b", &tokens, &diags));
    EXPECT_TRUE(diags.empty());
}

TEST(CheckedFrontend, ParseCheckedReportsWithoutThrowing)
{
    // Syntax error: collected, not thrown.
    ParseResult bad = parseChecked(
        "System S(){ state x; input u; x.dt = ; }\nS s(); s.t();");
    EXPECT_FALSE(bad.ok());
    ASSERT_EQ(1u, bad.diagnostics.size());
    EXPECT_EQ(1, bad.diagnostics[0].line);
    EXPECT_NE(std::string::npos,
              bad.diagnostics[0].message.find("parse error at 1:38"));

    // The fatal()-throwing wrapper reports the same first diagnostic.
    try {
        parseProgram(
            "System S(){ state x; input u; x.dt = ; }\nS s(); s.t();");
        FAIL() << "parseProgram should have thrown";
    } catch (const FatalError &err) {
        EXPECT_EQ(bad.diagnostics[0].message, err.what());
    }

    // A good program parses with an empty diagnostic list.
    ParseResult good = parseChecked(kMobileRobotSource);
    EXPECT_TRUE(good.ok());
    EXPECT_EQ(1u, good.program.systems.size());

    // Lexical errors short-circuit the parse: every bad character is
    // reported, with no cascading syntax noise appended.
    ParseResult lex = parseChecked("System @ S(){ # }");
    EXPECT_FALSE(lex.ok());
    ASSERT_EQ(2u, lex.diagnostics.size());
    EXPECT_EQ("lex error at 1:8: unexpected character '@'",
              lex.diagnostics[0].message);
    EXPECT_EQ("lex error at 1:15: unexpected character '#'",
              lex.diagnostics[1].message);
}

TEST(CheckedFrontend, SeededMutationCorpusNeverThrowsAndIsDeterministic)
{
    // splitmix64: deterministic cross-platform mutation stream.
    auto mix = support::splitmix64;
    const std::string base = kMobileRobotSource;
    const char pool[] = "@#$?<~`\\|&!%\";={}[]().,:+-*/^ \n0aZ_";
    int parsed_ok = 0;
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
        std::string src = base;
        std::uint64_t h = mix(seed);
        const int edits = 1 + static_cast<int>(h % 3);
        for (int e = 0; e < edits; ++e) {
            h = mix(h);
            const std::size_t at = h % src.size();
            const char c = pool[mix(h ^ 0x5bu) % (sizeof(pool) - 1)];
            switch (mix(h ^ 0xa7u) % 3) {
              case 0: src[at] = c; break;
              case 1: src.insert(at, 1, c); break;
              default: src.erase(at, 1); break;
            }
        }
        ParseResult first = parseChecked(src);
        ParseResult second = parseChecked(src);
        // No crash, no throw, and byte-for-byte repeatable verdicts.
        ASSERT_EQ(first.ok(), second.ok()) << "seed " << seed;
        ASSERT_EQ(first.diagnostics.size(), second.diagnostics.size())
            << "seed " << seed;
        for (std::size_t i = 0; i < first.diagnostics.size(); ++i) {
            EXPECT_EQ(first.diagnostics[i].line,
                      second.diagnostics[i].line);
            EXPECT_EQ(first.diagnostics[i].column,
                      second.diagnostics[i].column);
            EXPECT_EQ(first.diagnostics[i].message,
                      second.diagnostics[i].message);
        }
        parsed_ok += first.ok() ? 1 : 0;
    }
    // The corpus exercises both outcomes: some mutants still parse
    // (comments, whitespace, benign swaps), many do not.
    EXPECT_GT(parsed_ok, 0);
    EXPECT_LT(parsed_ok, 200);
}

} // namespace
} // namespace robox::dsl
