// VM tests: opcode semantics, fault containment, and execution statistics,
// driven through hand-assembled programs with a scripted helper context.

#include <gtest/gtest.h>

#include "src/vm/vm.h"

namespace osguard {
namespace {

// Helper context that records calls and returns scripted values.
class FakeHelperContext : public HelperContext {
 public:
  Result<Value> CallHelper(HelperId id, std::span<const Value> args) override {
    calls.push_back({id, {args.begin(), args.end()}});
    if (fail_next) {
      fail_next = false;
      return ExecutionError("scripted failure");
    }
    return next_result;
  }
  SimTime now() const override { return 0; }

  struct Call {
    HelperId id;
    std::vector<Value> args;
  };
  std::vector<Call> calls;
  Value next_result;
  bool fail_next = false;
};

class VmTest : public ::testing::Test {
 protected:
  // Builds a program with the given instructions and constants.
  Program Make(std::vector<Insn> insns, std::vector<Value> consts, int regs = 8) {
    Program program;
    program.name = "vm-test";
    program.insns = std::move(insns);
    program.consts = std::move(consts);
    program.register_count = regs;
    return program;
  }

  Result<Value> Run(const Program& program) { return vm_.Execute(program, context_); }

  Vm vm_;
  FakeHelperContext context_;
};

TEST_F(VmTest, LoadConstAndReturn) {
  auto result = Run(Make({{Op::kLoadConst, 0, 0, 0, 0}, {Op::kRet, 0, 0, 0, 0}}, {Value(42)}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().AsInt().value(), 42);
}

TEST_F(VmTest, MovCopies) {
  auto result = Run(Make({{Op::kLoadConst, 0, 0, 0, 0},
                          {Op::kMov, 1, 0, 0, 0},
                          {Op::kRet, 1, 0, 0, 0}},
                         {Value("text")}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().AsString().value(), "text");
}

TEST_F(VmTest, IntOverflowWrapsWithoutFault) {
  // Arithmetic on int64 max must not crash (two's-complement wrap is the
  // kernel-friendly behavior).
  auto result = Run(Make({{Op::kLoadConst, 0, 0, 0, 0},
                          {Op::kLoadConst, 1, 0, 0, 1},
                          {Op::kAdd, 2, 0, 1, 0},
                          {Op::kRet, 2, 0, 0, 0}},
                         {Value(int64_t{1}), Value(INT64_MAX)}));
  ASSERT_TRUE(result.ok());
}

TEST_F(VmTest, DivisionByZeroFaultsCleanly) {
  auto result = Run(Make({{Op::kLoadConst, 0, 0, 0, 0},
                          {Op::kLoadConst, 1, 0, 0, 1},
                          {Op::kDiv, 2, 0, 1, 0},
                          {Op::kRet, 2, 0, 0, 0}},
                         {Value(1), Value(0)}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kExecutionError);
  EXPECT_NE(result.status().message().find("division by zero"), std::string::npos);
}

TEST_F(VmTest, ModuloByZeroFaults) {
  auto result = Run(Make({{Op::kLoadConst, 0, 0, 0, 0},
                          {Op::kLoadConst, 1, 0, 0, 1},
                          {Op::kMod, 2, 0, 1, 0},
                          {Op::kRet, 2, 0, 0, 0}},
                         {Value(7), Value(0)}));
  EXPECT_FALSE(result.ok());
}

TEST_F(VmTest, ArithmeticOnStringFaults) {
  auto result = Run(Make({{Op::kLoadConst, 0, 0, 0, 0},
                          {Op::kLoadConst, 1, 0, 0, 1},
                          {Op::kAdd, 2, 0, 1, 0},
                          {Op::kRet, 2, 0, 0, 0}},
                         {Value("a"), Value(1)}));
  EXPECT_FALSE(result.ok());
}

TEST_F(VmTest, OrderedComparisonOnNilFaults) {
  auto result = Run(Make({{Op::kLoadConst, 0, 0, 0, 0},
                          {Op::kLoadConst, 1, 0, 0, 1},
                          {Op::kCmpLe, 2, 0, 1, 0},
                          {Op::kRet, 2, 0, 0, 0}},
                         {Value(), Value(10)}));
  EXPECT_FALSE(result.ok());
}

TEST_F(VmTest, EqualityOnMixedTypesIsFalseNotFault) {
  auto result = Run(Make({{Op::kLoadConst, 0, 0, 0, 0},
                          {Op::kLoadConst, 1, 0, 0, 1},
                          {Op::kCmpEq, 2, 0, 1, 0},
                          {Op::kRet, 2, 0, 0, 0}},
                         {Value("a"), Value(1)}));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().AsBool().value());
}

TEST_F(VmTest, StringOrderedComparisonIsLexicographic) {
  auto result = Run(Make({{Op::kLoadConst, 0, 0, 0, 0},
                          {Op::kLoadConst, 1, 0, 0, 1},
                          {Op::kCmpLt, 2, 0, 1, 0},
                          {Op::kRet, 2, 0, 0, 0}},
                         {Value("apple"), Value("banana")}));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().AsBool().value());
}

TEST_F(VmTest, NegInt) {
  auto result = Run(Make({{Op::kLoadConst, 0, 0, 0, 0},
                          {Op::kNeg, 1, 0, 0, 0},
                          {Op::kRet, 1, 0, 0, 0}},
                         {Value(5)}));
  EXPECT_EQ(result.value().AsInt().value(), -5);
}

TEST_F(VmTest, NotTruthiness) {
  for (const auto& [input, expected] :
       std::vector<std::pair<Value, bool>>{{Value(), true},
                                           {Value(0), true},
                                           {Value(1), false},
                                           {Value(0.0), true},
                                           {Value(false), true},
                                           {Value(""), true},
                                           {Value("x"), false},
                                           {Value(std::vector<Value>{}), true}}) {
    auto result = Run(Make({{Op::kLoadConst, 0, 0, 0, 0},
                            {Op::kNot, 1, 0, 0, 0},
                            {Op::kRet, 1, 0, 0, 0}},
                           {input}));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().AsBool().value(), expected) << input.ToString();
  }
}

TEST_F(VmTest, TruthyValueFunctionMatchesVm) {
  EXPECT_FALSE(TruthyValue(Value()));
  EXPECT_FALSE(TruthyValue(Value(0)));
  EXPECT_TRUE(TruthyValue(Value(-1)));
  EXPECT_TRUE(TruthyValue(Value(0.5)));
  EXPECT_FALSE(TruthyValue(Value(false)));
  EXPECT_TRUE(TruthyValue(Value("x")));
  EXPECT_FALSE(TruthyValue(Value(std::vector<Value>{})));
  EXPECT_TRUE(TruthyValue(Value(std::vector<Value>{Value(0)})));
}

TEST_F(VmTest, JumpSkipsInstructions) {
  auto result = Run(Make({{Op::kLoadConst, 0, 0, 0, 0},   // r0 = 1
                          {Op::kJump, 0, 0, 0, 1},        // skip next
                          {Op::kLoadConst, 0, 0, 0, 1},   // r0 = 2 (skipped)
                          {Op::kRet, 0, 0, 0, 0}},
                         {Value(1), Value(2)}));
  EXPECT_EQ(result.value().AsInt().value(), 1);
}

TEST_F(VmTest, StepCapAndStructuralBoundAbortDistinctly) {
  // A self-loop: the backward jump the verifier refuses, so only the VM's
  // instruction bounds end it.
  const Program loop = Make({{Op::kJump, 0, 0, 0, -1}}, {});

  auto structural = vm_.Execute(loop, context_);
  ASSERT_FALSE(structural.ok());
  EXPECT_EQ(structural.status().code(), ErrorCode::kExecutionError);
  EXPECT_EQ(vm_.stats().insns_executed, kMaxInstructions + 1);
  EXPECT_EQ(vm_.stats().budget_aborts, 0);

  // The supervisor's step cap aborts as kResourceExhausted, counted apart.
  vm_.ResetStats();
  auto capped = vm_.Execute(loop, context_, 10);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), ErrorCode::kResourceExhausted);
  EXPECT_EQ(vm_.stats().insns_executed, 11);
  EXPECT_EQ(vm_.stats().budget_aborts, 1);

  // A cap at or past the structural bound never fires first.
  for (int64_t cap : {int64_t{kMaxInstructions}, int64_t{kMaxInstructions} + 1}) {
    vm_.ResetStats();
    auto loose = vm_.Execute(loop, context_, cap);
    ASSERT_FALSE(loose.ok());
    EXPECT_EQ(loose.status().code(), ErrorCode::kExecutionError) << cap;
    EXPECT_EQ(vm_.stats().budget_aborts, 0) << cap;
  }
}

TEST_F(VmTest, ConditionalJumps) {
  // if r0 (false): skip r1=1. r1 stays 2.
  auto result = Run(Make({{Op::kLoadConst, 0, 0, 0, 0},   // r0 = false
                          {Op::kLoadConst, 1, 0, 0, 2},   // r1 = 2
                          {Op::kJumpIfFalse, 0, 0, 0, 1},
                          {Op::kLoadConst, 1, 0, 0, 1},   // r1 = 1 (skipped)
                          {Op::kRet, 1, 0, 0, 0}},
                         {Value(false), Value(1), Value(2)}));
  EXPECT_EQ(result.value().AsInt().value(), 2);
}

TEST_F(VmTest, MakeListCollectsRegisters) {
  auto result = Run(Make({{Op::kLoadConst, 0, 0, 0, 0},
                          {Op::kLoadConst, 1, 0, 0, 1},
                          {Op::kMakeList, 2, 0, 0, 2},
                          {Op::kRet, 2, 0, 0, 0}},
                         {Value(1), Value("two")}));
  ASSERT_TRUE(result.ok());
  const auto list = result.value().AsList().value();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].AsInt().value(), 1);
  EXPECT_EQ(list[1].AsString().value(), "two");
}

TEST_F(VmTest, HelperCallPassesArgsAndStoresResult) {
  context_.next_result = Value(123);
  auto result = Run(Make({{Op::kLoadConst, 0, 0, 0, 0},
                          {Op::kLoadConst, 1, 0, 0, 1},
                          {Op::kCall, 2, 0, 2, static_cast<int32_t>(HelperId::kLoadOr)},
                          {Op::kRet, 2, 0, 0, 0}},
                         {Value("key"), Value(7)}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().AsInt().value(), 123);
  ASSERT_EQ(context_.calls.size(), 1u);
  EXPECT_EQ(context_.calls[0].id, HelperId::kLoadOr);
  ASSERT_EQ(context_.calls[0].args.size(), 2u);
  EXPECT_EQ(context_.calls[0].args[0].AsString().value(), "key");
}

TEST_F(VmTest, HelperFailureBecomesExecutionError) {
  context_.fail_next = true;
  auto result = Run(Make({{Op::kLoadConst, 0, 0, 0, 0},
                          {Op::kCall, 1, 0, 1, static_cast<int32_t>(HelperId::kLoad)},
                          {Op::kRet, 1, 0, 0, 0}},
                         {Value("key")}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ErrorCode::kExecutionError);
  EXPECT_NE(result.status().message().find("scripted failure"), std::string::npos);
}

TEST_F(VmTest, StatsCountInsnsAndHelperCalls) {
  vm_.ResetStats();
  Run(Make({{Op::kLoadConst, 0, 0, 0, 0},
            {Op::kCall, 1, 0, 1, static_cast<int32_t>(HelperId::kLoad)},
            {Op::kRet, 1, 0, 0, 0}},
           {Value("key")}));
  EXPECT_EQ(vm_.stats().insns_executed, 3);
  EXPECT_EQ(vm_.stats().helper_calls, 1);
  Run(Make({{Op::kLoadConst, 0, 0, 0, 0}, {Op::kRet, 0, 0, 0, 0}}, {Value(1)}));
  EXPECT_EQ(vm_.stats().insns_executed, 5);  // cumulative
}

TEST_F(VmTest, FloatIntMixedArithmeticPromotes) {
  auto result = Run(Make({{Op::kLoadConst, 0, 0, 0, 0},
                          {Op::kLoadConst, 1, 0, 0, 1},
                          {Op::kMul, 2, 0, 1, 0},
                          {Op::kRet, 2, 0, 0, 0}},
                         {Value(3), Value(0.5)}));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().type(), ValueType::kFloat);
  EXPECT_DOUBLE_EQ(result.value().AsFloat().value(), 1.5);
}

TEST_F(VmTest, BoolsActAsNumbersInArithmetic) {
  auto result = Run(Make({{Op::kLoadConst, 0, 0, 0, 0},
                          {Op::kLoadConst, 1, 0, 0, 1},
                          {Op::kAdd, 2, 0, 1, 0},
                          {Op::kRet, 2, 0, 0, 0}},
                         {Value(true), Value(true)}));
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().NumericOr(-1), 2.0);
}

}  // namespace
}  // namespace osguard
