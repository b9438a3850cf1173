// Semantic-analysis tests: trigger folding, rule purity, action validation,
// meta vocabulary, constant evaluation, and type inference.

#include <gtest/gtest.h>

#include "src/dsl/parser.h"
#include "src/dsl/sema.h"

namespace osguard {
namespace {

Result<AnalyzedSpec> AnalyzeSource(const std::string& source) {
  auto spec = ParseSpecSource(source);
  if (!spec.ok()) {
    return spec.status();
  }
  return Analyze(std::move(spec).value());
}

AnalyzedSpec AnalyzeOk(const std::string& source) {
  auto analyzed = AnalyzeSource(source);
  EXPECT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  return analyzed.ok() ? std::move(analyzed).value() : AnalyzedSpec{};
}

Status AnalyzeFailure(const std::string& source) {
  auto analyzed = AnalyzeSource(source);
  EXPECT_FALSE(analyzed.ok()) << "expected semantic failure";
  return analyzed.ok() ? OkStatus() : analyzed.status();
}

TEST(SemaTest, TimerArgsAreConstantFolded) {
  const AnalyzedSpec spec = AnalyzeOk(R"(
    guardrail g {
      trigger: { TIMER(2s + 500ms, 2 * 250ms, 60s) },
      rule: { true }, action: { REPORT() }
    }
  )");
  const TriggerDecl& trigger = spec.guardrails[0].decl.triggers[0];
  EXPECT_EQ(trigger.start, 2500000000);
  EXPECT_EQ(trigger.interval, 500000000);
  EXPECT_EQ(trigger.stop, 60000000000);
}

TEST(SemaTest, TimerWithoutStopIsForever) {
  const AnalyzedSpec spec = AnalyzeOk(R"(
    guardrail g { trigger: { TIMER(0, 1s) }, rule: { true }, action: { REPORT() } }
  )");
  EXPECT_EQ(spec.guardrails[0].decl.triggers[0].stop, 0);
}

TEST(SemaTest, TimerNonConstantArgsRejected) {
  const Status status = AnalyzeFailure(R"(
    guardrail g { trigger: { TIMER(LOAD(x), 1s) }, rule: { true }, action: { REPORT() } }
  )");
  EXPECT_EQ(status.code(), ErrorCode::kSemanticError);
}

TEST(SemaTest, TimerZeroIntervalRejected) {
  EXPECT_FALSE(AnalyzeSource(R"(
    guardrail g { trigger: { TIMER(0, 0) }, rule: { true }, action: { REPORT() } }
  )").ok());
}

TEST(SemaTest, TimerNegativeStartRejected) {
  EXPECT_FALSE(AnalyzeSource(R"(
    guardrail g { trigger: { TIMER(0 - 5s, 1s) }, rule: { true }, action: { REPORT() } }
  )").ok());
}

TEST(SemaTest, TimerStopBeforeStartRejected) {
  EXPECT_FALSE(AnalyzeSource(R"(
    guardrail g { trigger: { TIMER(10s, 1s, 5s) }, rule: { true }, action: { REPORT() } }
  )").ok());
}

TEST(SemaTest, DuplicateGuardrailNamesRejected) {
  const Status status = AnalyzeFailure(R"(
    guardrail same { trigger: { TIMER(0,1s) }, rule: { true }, action: { REPORT() } }
    guardrail same { trigger: { TIMER(0,1s) }, rule: { true }, action: { REPORT() } }
  )");
  EXPECT_NE(status.message().find("duplicate"), std::string::npos);
}

TEST(SemaTest, SideEffectsForbiddenInRules) {
  for (const char* rule : {"SAVE(x, 1) == 1", "INCR(x) > 0", "OBSERVE(x, 1) == 0"}) {
    const std::string source = std::string(R"(
      guardrail g { trigger: { TIMER(0,1s) }, rule: { )") +
                               rule + R"( }, action: { REPORT() } }
    )";
    auto analyzed = AnalyzeSource(source);
    EXPECT_FALSE(analyzed.ok()) << rule;
    if (!analyzed.ok()) {
      EXPECT_NE(analyzed.status().message().find("side effects"), std::string::npos) << rule;
    }
  }
}

TEST(SemaTest, ActionsForbiddenInRules) {
  for (const char* rule :
       {"REPORT() == 0", "REPLACE(a, b) == 0", "RETRAIN(m) == 0"}) {
    const std::string source = std::string(R"(
      guardrail g { trigger: { TIMER(0,1s) }, rule: { )") +
                               rule + R"( }, action: { REPORT() } }
    )";
    EXPECT_FALSE(AnalyzeSource(source).ok()) << rule;
  }
}

TEST(SemaTest, PureBuiltinsAllowedInRules) {
  AnalyzeOk(R"(
    guardrail g {
      trigger: { TIMER(0,1s) },
      rule: { ABS(LOAD_OR(x, 0)) <= SQRT(MEAN(lat, 1s)) && EXISTS(flag) || NOW() > 1s },
      action: { REPORT() }
    }
  )");
}

TEST(SemaTest, NonActionCallRejectedAsActionStatement) {
  const Status status = AnalyzeFailure(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { true }, action: { MEAN(x, 1s) } }
  )");
  EXPECT_NE(status.message().find("not an action"), std::string::npos);
}

TEST(SemaTest, StoreMutationsAllowedAsActions) {
  AnalyzeOk(R"(
    guardrail g {
      trigger: { TIMER(0,1s) }, rule: { true },
      action: { SAVE(a, 1); INCR(b); OBSERVE(c, 2.5) }
    }
  )");
}

TEST(SemaTest, UnknownFunctionRejected) {
  const Status status = AnalyzeFailure(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { FROBNICATE(x) <= 1 }, action: { REPORT() } }
  )");
  EXPECT_NE(status.message().find("FROBNICATE"), std::string::npos);
}

TEST(SemaTest, ArityChecked) {
  EXPECT_FALSE(AnalyzeSource(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { LOAD(a, b, c) <= 1 }, action: { REPORT() } }
  )").ok());
  EXPECT_FALSE(AnalyzeSource(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { MEAN(a) <= 1 }, action: { REPORT() } }
  )").ok());
}

TEST(SemaTest, KeyArgumentsMustBeIdentifiersOrStrings) {
  EXPECT_FALSE(AnalyzeSource(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { LOAD(1 + 2) <= 1 }, action: { REPORT() } }
  )").ok());
  AnalyzeOk(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { LOAD("dotted.key") <= 1 || true },
                  action: { REPORT() } }
  )");
}

TEST(SemaTest, DeprioritizeListShapesChecked) {
  AnalyzeOk(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { true },
                  action: { DEPRIORITIZE({a, b}, {1, 0.5}) } }
  )");
  // Non-list arguments rejected.
  EXPECT_FALSE(AnalyzeSource(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { true },
                  action: { DEPRIORITIZE(a, {1}) } }
  )").ok());
  // Name list with a number rejected.
  EXPECT_FALSE(AnalyzeSource(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { true },
                  action: { DEPRIORITIZE({1, 2}, {1, 2}) } }
  )").ok());
}

TEST(SemaTest, RuleMustBeTruthValued) {
  const Status status = AnalyzeFailure(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { "just a string" }, action: { REPORT() } }
  )");
  EXPECT_NE(status.message().find("truth value"), std::string::npos);
}

TEST(SemaTest, StringArithmeticRejected) {
  EXPECT_FALSE(AnalyzeSource(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { "a" + 1 <= 2 }, action: { REPORT() } }
  )").ok());
}

TEST(SemaTest, MetaDefaults) {
  const AnalyzedSpec spec = AnalyzeOk(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { true }, action: { REPORT() } }
  )");
  const GuardrailMeta& meta = spec.guardrails[0].meta;
  EXPECT_EQ(meta.severity, Severity::kWarning);
  EXPECT_EQ(meta.cooldown, 0);
  EXPECT_EQ(meta.hysteresis, 1);
  EXPECT_TRUE(meta.enabled);
}

TEST(SemaTest, MetaParsedIntoTypedFields) {
  const AnalyzedSpec spec = AnalyzeOk(R"(
    guardrail g {
      trigger: { TIMER(0,1s) }, rule: { true }, action: { REPORT() },
      meta: { severity = critical, cooldown = 5s, hysteresis = 4, enabled = false,
              description = "x" }
    }
  )");
  const GuardrailMeta& meta = spec.guardrails[0].meta;
  EXPECT_EQ(meta.severity, Severity::kCritical);
  EXPECT_EQ(meta.cooldown, Seconds(5));
  EXPECT_EQ(meta.hysteresis, 4);
  EXPECT_FALSE(meta.enabled);
  EXPECT_EQ(meta.description, "x");
}

TEST(SemaTest, UnknownMetaKeyRejected) {
  const Status status = AnalyzeFailure(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { true }, action: { REPORT() },
                  meta: { cooldwon = 5s } }
  )");
  EXPECT_NE(status.message().find("cooldwon"), std::string::npos);
  const Status tier = AnalyzeFailure(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { true }, action: { REPORT() },
                  meta: { tier = native } }
  )");
  EXPECT_NE(tier.message().find("unknown meta attribute 'tier'"), std::string::npos)
      << tier.message();
}

TEST(SemaTest, BadMetaValuesRejected) {
  EXPECT_FALSE(AnalyzeSource(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { true }, action: { REPORT() },
                  meta: { severity = catastrophic } }
  )").ok());
  EXPECT_FALSE(AnalyzeSource(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { true }, action: { REPORT() },
                  meta: { hysteresis = 0 } }
  )").ok());
}

TEST(SemaTest, WallClockBudgetRejectedInFavorOfSteps) {
  const Status status = AnalyzeFailure(R"(
    guardrail g { trigger: { TIMER(0,1s) }, rule: { true }, action: { REPORT() },
                  health: { budget_ns = 2ms } }
  )");
  EXPECT_EQ(status.code(), ErrorCode::kSemanticError);
  EXPECT_NE(status.message().find("budget_ns"), std::string::npos) << status.message();
  EXPECT_NE(status.message().find("budget_steps"), std::string::npos) << status.message();
}

// --- EvalConst ---

Value EvalConstSource(const std::string& source) {
  auto expr = ParseExprSource(source);
  EXPECT_TRUE(expr.ok());
  auto value = EvalConst(*expr.value());
  EXPECT_TRUE(value.ok()) << value.status().ToString();
  return value.ok() ? value.value() : Value();
}

TEST(EvalConstTest, FoldsArithmetic) {
  EXPECT_EQ(EvalConstSource("2 + 3 * 4").AsInt().value(), 14);
  EXPECT_DOUBLE_EQ(EvalConstSource("7 / 2").AsFloat().value(), 3.5);
  EXPECT_EQ(EvalConstSource("-(2 + 3)").AsInt().value(), -5);
  EXPECT_EQ(EvalConstSource("1s + 250ms").AsInt().value(), 1250000000);
}

TEST(EvalConstTest, FoldsComparisonsAndLogic) {
  EXPECT_TRUE(EvalConstSource("1 < 2").AsBool().value());
  EXPECT_TRUE(EvalConstSource("true && !false").AsBool().value());
  EXPECT_FALSE(EvalConstSource("1 > 2 || false").AsBool().value());
}

TEST(EvalConstTest, RejectsNonConstants) {
  auto expr = ParseExprSource("LOAD(x) + 1");
  ASSERT_TRUE(expr.ok());
  EXPECT_FALSE(EvalConst(*expr.value()).ok());
  expr = ParseExprSource("free_ident");
  ASSERT_TRUE(expr.ok());
  EXPECT_FALSE(EvalConst(*expr.value()).ok());
}

TEST(EvalConstTest, RejectsDivisionByZero) {
  auto expr = ParseExprSource("1 / 0");
  ASSERT_TRUE(expr.ok());
  EXPECT_FALSE(EvalConst(*expr.value()).ok());
}

// --- InferType ---

DslType TypeOf(const std::string& source) {
  auto expr = ParseExprSource(source);
  EXPECT_TRUE(expr.ok());
  return InferType(*expr.value());
}

TEST(InferTypeTest, CoversExpressionShapes) {
  EXPECT_EQ(TypeOf("42"), DslType::kNum);
  EXPECT_EQ(TypeOf("1.5"), DslType::kNum);
  EXPECT_EQ(TypeOf("true"), DslType::kBool);
  EXPECT_EQ(TypeOf("\"s\""), DslType::kStr);
  EXPECT_EQ(TypeOf("x"), DslType::kAny);
  EXPECT_EQ(TypeOf("1 + 2"), DslType::kNum);
  EXPECT_EQ(TypeOf("1 < 2"), DslType::kBool);
  EXPECT_EQ(TypeOf("a && b"), DslType::kBool);
  EXPECT_EQ(TypeOf("!x"), DslType::kBool);
  EXPECT_EQ(TypeOf("-x"), DslType::kNum);
  EXPECT_EQ(TypeOf("MEAN(k, 1s)"), DslType::kNum);
  EXPECT_EQ(TypeOf("EXISTS(k)"), DslType::kBool);
  EXPECT_EQ(TypeOf("LOAD(k)"), DslType::kAny);
  EXPECT_EQ(TypeOf("SAVE(k, 1)"), DslType::kNil);
}

// --- Builtins registry ---

TEST(BuiltinsTest, LookupByNameAndId) {
  const Builtin* load = FindBuiltin("LOAD");
  ASSERT_NE(load, nullptr);
  EXPECT_EQ(load->id, HelperId::kLoad);
  EXPECT_EQ(FindBuiltinById(HelperId::kLoad), load);
  EXPECT_EQ(FindBuiltin("NOPE"), nullptr);
}

TEST(BuiltinsTest, ActionsAreFlagged) {
  for (const char* name : {"REPORT", "REPLACE", "RETRAIN", "DEPRIORITIZE"}) {
    const Builtin* builtin = FindBuiltin(name);
    ASSERT_NE(builtin, nullptr) << name;
    EXPECT_TRUE(builtin->is_action) << name;
  }
  EXPECT_FALSE(FindBuiltin("SAVE")->is_action);
}

TEST(BuiltinsTest, RegistryIsConsistent) {
  for (const Builtin& builtin : AllBuiltins()) {
    EXPECT_EQ(FindBuiltin(builtin.name), &builtin);
    EXPECT_EQ(FindBuiltinById(builtin.id), &builtin);
    EXPECT_GE(builtin.min_args, 0);
    if (builtin.max_args >= 0) {
      EXPECT_LE(builtin.min_args, builtin.max_args);
    }
  }
}

TEST(BuiltinsTest, QuantileSugarTable) {
  EXPECT_DOUBLE_EQ(QuantileSugar("P50"), 0.50);
  EXPECT_DOUBLE_EQ(QuantileSugar("P99"), 0.99);
  EXPECT_DOUBLE_EQ(QuantileSugar("P999"), 0.999);
  EXPECT_LT(QuantileSugar("MEAN"), 0.0);
}

}  // namespace
}  // namespace osguard
