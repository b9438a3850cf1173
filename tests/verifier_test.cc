// Verifier tests: every rejection class, plus acceptance of well-formed
// programs. These are the safety arguments for loading monitors in-kernel.

#include <algorithm>

#include <gtest/gtest.h>

#include "src/dsl/parser.h"
#include "src/vm/compiler.h"
#include "src/vm/verifier.h"

namespace osguard {
namespace {

// Minimal valid program: ldc r0, <nil>; ret r0.
Program MinimalProgram() {
  Program program;
  program.name = "minimal";
  program.register_count = 1;
  program.consts.push_back(Value());
  program.insns.push_back(Insn{Op::kLoadConst, 0, 0, 0, 0});
  program.insns.push_back(Insn{Op::kRet, 0, 0, 0, 0});
  return program;
}

TEST(VerifierTest, MinimalProgramVerifies) {
  EXPECT_TRUE(Verify(MinimalProgram()).ok());
}

TEST(VerifierTest, EmptyProgramRejected) {
  Program program;
  program.name = "empty";
  program.register_count = 1;
  const Status status = Verify(program);
  EXPECT_EQ(status.code(), ErrorCode::kVerifierError);
  EXPECT_NE(status.message().find("empty"), std::string::npos);
}

TEST(VerifierTest, TooManyInstructionsRejected) {
  Program program = MinimalProgram();
  program.insns.assign(static_cast<size_t>(kMaxInstructions) + 1,
                       Insn{Op::kLoadConst, 0, 0, 0, 0});
  program.insns.push_back(Insn{Op::kRet, 0, 0, 0, 0});
  EXPECT_FALSE(Verify(program).ok());
}

TEST(VerifierTest, BadRegisterCountRejected) {
  Program program = MinimalProgram();
  program.register_count = 0;
  EXPECT_FALSE(Verify(program).ok());
  program.register_count = kMaxRegisters + 1;
  EXPECT_FALSE(Verify(program).ok());
}

TEST(VerifierTest, DestinationRegisterOutOfRangeRejected) {
  Program program = MinimalProgram();
  program.insns[0].a = 5;  // register_count is 1
  const Status status = Verify(program);
  EXPECT_NE(status.message().find("out of range"), std::string::npos);
}

TEST(VerifierTest, SourceRegisterOutOfRangeRejected) {
  Program program = MinimalProgram();
  program.register_count = 2;
  program.insns.insert(program.insns.begin() + 1, Insn{Op::kMov, 1, 9, 0, 0});
  EXPECT_FALSE(Verify(program).ok());
}

TEST(VerifierTest, ConstantIndexOutOfRangeRejected) {
  Program program = MinimalProgram();
  program.insns[0].imm = 7;  // only one constant
  EXPECT_FALSE(Verify(program).ok());
}

TEST(VerifierTest, BackwardJumpRejected) {
  Program program = MinimalProgram();
  program.insns.insert(program.insns.begin() + 1, Insn{Op::kJump, 0, 0, 0, -1});
  const Status status = Verify(program);
  EXPECT_NE(status.message().find("non-forward"), std::string::npos);
}

TEST(VerifierTest, ZeroOffsetJumpRejected) {
  // pc += 0 would loop forever; forward-only means offset >= 1.
  Program program = MinimalProgram();
  program.insns.insert(program.insns.begin() + 1, Insn{Op::kJump, 0, 0, 0, 0});
  EXPECT_FALSE(Verify(program).ok());
}

TEST(VerifierTest, JumpPastEndRejected) {
  Program program = MinimalProgram();
  program.insns.insert(program.insns.begin() + 1, Insn{Op::kJump, 0, 0, 0, 100});
  const Status status = Verify(program);
  EXPECT_NE(status.message().find("out of range"), std::string::npos);
}

TEST(VerifierTest, FallOffEndRejected) {
  Program program;
  program.name = "no-ret";
  program.register_count = 1;
  program.consts.push_back(Value(1));
  program.insns.push_back(Insn{Op::kLoadConst, 0, 0, 0, 0});  // falls off
  const Status status = Verify(program);
  EXPECT_NE(status.message().find("fall off"), std::string::npos);
}

TEST(VerifierTest, UseBeforeDefinitionRejected) {
  Program program;
  program.name = "undef";
  program.register_count = 2;
  program.insns.push_back(Insn{Op::kRet, 1, 0, 0, 0});  // r1 never written
  const Status status = Verify(program);
  EXPECT_NE(status.message().find("before definition"), std::string::npos);
}

TEST(VerifierTest, UseBeforeDefinitionOnOnePathRejected) {
  // r1 is defined only on the fall-through path; the join must reject.
  //   0: ldc r0, true
  //   1: jnz r0, +1 (-> 3)
  //   2: ldc r1, true
  //   3: ret r1          <- r1 undefined if the jump was taken
  Program program;
  program.name = "one-path";
  program.register_count = 2;
  program.consts.push_back(Value(true));
  program.insns.push_back(Insn{Op::kLoadConst, 0, 0, 0, 0});
  program.insns.push_back(Insn{Op::kJumpIfTrue, 0, 0, 0, 1});
  program.insns.push_back(Insn{Op::kLoadConst, 1, 0, 0, 0});
  program.insns.push_back(Insn{Op::kRet, 1, 0, 0, 0});
  const Status status = Verify(program);
  EXPECT_NE(status.message().find("before definition"), std::string::npos);
}

TEST(VerifierTest, DefinitionOnBothPathsAccepted) {
  //   0: ldc r0, true
  //   1: ldc r1, true    <- defined before the branch
  //   2: jnz r0, +1 (-> 4)
  //   3: ldc r1, true
  //   4: ret r1
  Program program;
  program.name = "both-paths";
  program.register_count = 2;
  program.consts.push_back(Value(true));
  program.insns.push_back(Insn{Op::kLoadConst, 0, 0, 0, 0});
  program.insns.push_back(Insn{Op::kLoadConst, 1, 0, 0, 0});
  program.insns.push_back(Insn{Op::kJumpIfTrue, 0, 0, 0, 1});
  program.insns.push_back(Insn{Op::kLoadConst, 1, 0, 0, 0});
  program.insns.push_back(Insn{Op::kRet, 1, 0, 0, 0});
  EXPECT_TRUE(Verify(program).ok());
}

TEST(VerifierTest, UnknownHelperRejected) {
  Program program = MinimalProgram();
  program.insns.insert(program.insns.begin() + 1, Insn{Op::kCall, 0, 0, 0, 9999});
  const Status status = Verify(program);
  EXPECT_NE(status.message().find("unknown helper"), std::string::npos);
}

TEST(VerifierTest, HelperArityRejected) {
  Program program = MinimalProgram();
  // LOAD takes exactly one argument; call it with none.
  program.insns.insert(program.insns.begin() + 1,
                       Insn{Op::kCall, 0, 0, 0, static_cast<int32_t>(HelperId::kLoad)});
  EXPECT_FALSE(Verify(program).ok());
}

TEST(VerifierTest, HelperArgWindowOutOfRangeRejected) {
  Program program = MinimalProgram();
  // LOAD(r0) but with the arg window starting at the last register and
  // spilling past the file.
  Insn call{Op::kCall, 0, 0, 2, static_cast<int32_t>(HelperId::kLoadOr)};
  program.insns.insert(program.insns.begin() + 1, call);
  EXPECT_FALSE(Verify(program).ok());
}

TEST(VerifierTest, ActionHelperRejectedInRuleMode) {
  Program program = MinimalProgram();
  Insn call{Op::kCall, 0, 0, 0, static_cast<int32_t>(HelperId::kReport)};
  program.insns.insert(program.insns.begin() + 1, call);
  const Status status = Verify(program, VerifyOptions{.allow_actions = false});
  EXPECT_NE(status.message().find("not allowed in a rule"), std::string::npos);
  EXPECT_TRUE(Verify(program, VerifyOptions{.allow_actions = true}).ok());
}

TEST(VerifierTest, MutatingHelperRejectedInRuleMode) {
  Program program;
  program.name = "save-in-rule";
  program.register_count = 2;
  program.consts.push_back(Value("key"));
  program.consts.push_back(Value(1));
  program.insns.push_back(Insn{Op::kLoadConst, 0, 0, 0, 0});
  program.insns.push_back(Insn{Op::kLoadConst, 1, 0, 0, 1});
  program.insns.push_back(Insn{Op::kCall, 0, 0, 2, static_cast<int32_t>(HelperId::kSave)});
  program.insns.push_back(Insn{Op::kRet, 0, 0, 0, 0});
  EXPECT_FALSE(Verify(program, VerifyOptions{.allow_actions = false}).ok());
  EXPECT_TRUE(Verify(program, VerifyOptions{.allow_actions = true}).ok());
}

// kCallKeyed exists for the keyed helpers alone (IsKeyedHelper): only
// Engine::Load creates it, for them, and the keyed dispatch serves only
// them. A keyed call of any other helper is refused, whatever else holds.
TEST(VerifierTest, KeyedCallOfAHelperThatTakesNoKeyRejected) {
  for (const Builtin& builtin : AllBuiltins()) {
    const int argc = std::max(builtin.min_args, 1);
    Program program;
    program.name = "keyed";
    program.register_count = argc;
    program.consts.push_back(Value("key"));
    program.consts.push_back(Value(1));
    for (int r = 1; r < argc; ++r) {
      program.insns.push_back(Insn{Op::kLoadConst, static_cast<uint8_t>(r), 0, 0, 1});
    }
    Insn call{Op::kCallKeyed, 0, 0, static_cast<uint8_t>(argc), KeyedCallImm(builtin.id, 0)};
    program.insns.push_back(call);
    program.insns.push_back(Insn{Op::kRet, 0, 0, 0, 0});
    const Status status = Verify(program, VerifyOptions{.allow_actions = true});
    if (IsKeyedHelper(builtin.id)) {
      EXPECT_TRUE(status.ok()) << builtin.name << ": " << status.message();
    } else {
      EXPECT_EQ(status.code(), ErrorCode::kVerifierError) << builtin.name;
      EXPECT_NE(status.message().find("takes no store key"), std::string::npos)
          << builtin.name << ": " << status.message();
    }
  }
}

TEST(VerifierTest, MakeListWindowChecked) {
  Program program = MinimalProgram();
  program.insns.insert(program.insns.begin() + 1, Insn{Op::kMakeList, 0, 0, 0, 50});
  EXPECT_FALSE(Verify(program).ok());
}

TEST(VerifierTest, UnknownOpcodeRejected) {
  Program program = MinimalProgram();
  Insn bogus;
  bogus.op = static_cast<Op>(200);
  program.insns.insert(program.insns.begin() + 1, bogus);
  EXPECT_FALSE(Verify(program).ok());
}

// Every program the compiler emits must verify — sweep across language
// features.
class CompiledProgramsVerifyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CompiledProgramsVerifyTest, CompilerOutputAlwaysVerifies) {
  auto expr = ParseExprSource(GetParam());
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  auto program = CompileExpr(*expr.value(), "sweep");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_TRUE(Verify(program.value()).ok());
  EXPECT_LE(program.value().register_count, kMaxRegisters);
}

INSTANTIATE_TEST_SUITE_P(
    LanguageFeatures, CompiledProgramsVerifyTest,
    ::testing::Values("1", "x", "LOAD(key)", "a + b * c - d / e % f",
                      "a < b && c > d || !e", "MEAN(lat, 10s) <= P99(lat, 1s)",
                      "CLAMP(LOAD_OR(x, 0), 0, 100) == 50",
                      "EXISTS(a) && EXISTS(b) && EXISTS(c)",
                      "NOW() > 1s || COUNT(k, 1s) == 0",
                      "(a || b) && (c || d) && (e || f)",
                      "SQRT(ABS(x)) + LOG(EXP(1)) * POW(2, 3)"));

}  // namespace
}  // namespace osguard
