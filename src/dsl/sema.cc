#include "src/dsl/sema.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace osguard {

std::string_view ChaosModeName(ChaosMode mode) {
  switch (mode) {
    case ChaosMode::kOff:
      return "off";
    case ChaosMode::kBernoulli:
      return "bernoulli";
    case ChaosMode::kSchedule:
      return "schedule";
    case ChaosMode::kBurst:
      return "burst";
  }
  return "?";
}

std::string_view SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kCritical:
      return "critical";
  }
  return "?";
}

std::string_view CriticalityName(Criticality criticality) {
  switch (criticality) {
    case Criticality::kStandard:
      return "standard";
    case Criticality::kCritical:
      return "critical";
    case Criticality::kBestEffort:
      return "besteffort";
  }
  return "?";
}

namespace {

std::string Where(const Expr& expr) {
  return " at line " + std::to_string(expr.line) + ", column " + std::to_string(expr.column);
}

// Context of the expression being checked: rules must be pure, actions may
// mutate and invoke the corrective-action helpers.
enum class ExprContext { kRule, kAction };

bool IsMutatingHelper(HelperId id) {
  return id == HelperId::kSave || id == HelperId::kIncr || id == HelperId::kObserve;
}

Status CheckExpr(const Expr& expr, ExprContext context);

Status CheckCallArgs(const Expr& call, const Builtin& builtin, ExprContext context) {
  const int argc = static_cast<int>(call.children.size());
  if (argc < builtin.min_args ||
      (builtin.max_args >= 0 && argc > builtin.max_args)) {
    std::string arity = std::to_string(builtin.min_args);
    if (builtin.max_args < 0) {
      arity += "+";
    } else if (builtin.max_args != builtin.min_args) {
      arity += ".." + std::to_string(builtin.max_args);
    }
    return SemanticError(std::string(builtin.name) + " expects " + arity + " argument(s), got " +
                         std::to_string(argc) + Where(call));
  }
  for (int i = 0; i < argc; ++i) {
    const Expr& arg = *call.children[static_cast<size_t>(i)];
    ArgMode mode = ArgMode::kValue;
    if (!builtin.arg_modes.empty()) {
      const size_t mode_index =
          std::min(static_cast<size_t>(i), builtin.arg_modes.size() - 1);
      mode = builtin.arg_modes[mode_index];
    }
    switch (mode) {
      case ArgMode::kKey:
        if (arg.kind != ExprKind::kIdent &&
            !(arg.kind == ExprKind::kLiteral && arg.literal.type() == ValueType::kString)) {
          return SemanticError("argument " + std::to_string(i + 1) + " of " +
                               std::string(builtin.name) +
                               " must be a key identifier or string literal, got " +
                               arg.ToString() + Where(arg));
        }
        break;
      case ArgMode::kNameList: {
        if (arg.kind != ExprKind::kList) {
          return SemanticError("argument " + std::to_string(i + 1) + " of " +
                               std::string(builtin.name) + " must be a {name, ...} list" +
                               Where(arg));
        }
        for (const ExprPtr& element : arg.children) {
          if (element->kind != ExprKind::kIdent &&
              !(element->kind == ExprKind::kLiteral &&
                element->literal.type() == ValueType::kString)) {
            return SemanticError("list elements of " + std::string(builtin.name) +
                                 " must be identifiers" + Where(*element));
          }
        }
        break;
      }
      case ArgMode::kValueList: {
        if (arg.kind != ExprKind::kList) {
          return SemanticError("argument " + std::to_string(i + 1) + " of " +
                               std::string(builtin.name) + " must be a {value, ...} list" +
                               Where(arg));
        }
        for (const ExprPtr& element : arg.children) {
          OSGUARD_RETURN_IF_ERROR(CheckExpr(*element, context));
        }
        break;
      }
      case ArgMode::kValue:
        OSGUARD_RETURN_IF_ERROR(CheckExpr(arg, context));
        break;
    }
  }
  return OkStatus();
}

Status CheckExpr(const Expr& expr, ExprContext context) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      if (expr.literal.type() == ValueType::kList) {
        return SemanticError("list literals are only valid as call arguments" + Where(expr));
      }
      return OkStatus();
    case ExprKind::kIdent:
      // Implicit LOAD of a feature-store key; always legal.
      return OkStatus();
    case ExprKind::kList:
      return SemanticError("a {...} list is only valid as a call argument" + Where(expr));
    case ExprKind::kUnary:
      return CheckExpr(*expr.children[0], context);
    case ExprKind::kBinary: {
      OSGUARD_RETURN_IF_ERROR(CheckExpr(*expr.children[0], context));
      OSGUARD_RETURN_IF_ERROR(CheckExpr(*expr.children[1], context));
      const DslType lhs = InferType(*expr.children[0]);
      const DslType rhs = InferType(*expr.children[1]);
      auto is_numeric_ok = [](DslType t) {
        return t == DslType::kNum || t == DslType::kBool || t == DslType::kAny;
      };
      switch (expr.binary_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          if (!is_numeric_ok(lhs) || !is_numeric_ok(rhs)) {
            return SemanticError(std::string("operator '") +
                                 std::string(BinaryOpName(expr.binary_op)) +
                                 "' needs numeric operands, got " + std::string(DslTypeName(lhs)) +
                                 " and " + std::string(DslTypeName(rhs)) + Where(expr));
          }
          break;
        case BinaryOp::kEq:
        case BinaryOp::kNe:
          // Equality is defined for every value type.
          break;
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          if (lhs == DslType::kStr || rhs == DslType::kStr || lhs == DslType::kList ||
              rhs == DslType::kList) {
            return SemanticError("logical operators need boolean operands" + Where(expr));
          }
          break;
      }
      return OkStatus();
    }
    case ExprKind::kCall: {
      const Builtin* builtin = FindBuiltin(expr.name);
      if (builtin == nullptr) {
        return SemanticError("unknown function '" + expr.name + "'" + Where(expr));
      }
      if (context == ExprContext::kRule &&
          (builtin->is_action || IsMutatingHelper(builtin->id))) {
        return SemanticError("'" + expr.name +
                             "' has side effects and is not allowed in rule expressions" +
                             Where(expr));
      }
      return CheckCallArgs(expr, *builtin, context);
    }
  }
  return InternalError("unhandled expression kind");
}

Status CheckActionStatement(const Expr& stmt) {
  if (stmt.kind != ExprKind::kCall) {
    return SemanticError("action statements must be calls" + Where(stmt));
  }
  const Builtin* builtin = FindBuiltin(stmt.name);
  if (builtin == nullptr) {
    return SemanticError("unknown action '" + stmt.name + "'" + Where(stmt));
  }
  if (!builtin->is_action && !IsMutatingHelper(builtin->id)) {
    return SemanticError("'" + stmt.name +
                         "' is not an action (REPORT / REPLACE / RETRAIN / DEPRIORITIZE / "
                         "SAVE / INCR / OBSERVE)" +
                         Where(stmt));
  }
  return CheckCallArgs(stmt, *builtin, ExprContext::kAction);
}

Status FoldTimerTrigger(TriggerDecl& trigger, const std::string& guardrail_name) {
  auto fold_arg = [&](size_t i, const char* what) -> Result<int64_t> {
    OSGUARD_ASSIGN_OR_RETURN(Value v, EvalConst(*trigger.args[i]));
    if (!v.is_numeric()) {
      return SemanticError(std::string("TIMER ") + what + " of guardrail '" + guardrail_name +
                           "' must be a constant number");
    }
    return static_cast<int64_t>(v.NumericOr(0.0));
  };
  OSGUARD_ASSIGN_OR_RETURN(trigger.start, fold_arg(0, "start_time"));
  OSGUARD_ASSIGN_OR_RETURN(trigger.interval, fold_arg(1, "interval"));
  if (trigger.args.size() == 3) {
    OSGUARD_ASSIGN_OR_RETURN(trigger.stop, fold_arg(2, "stop_time"));
  } else {
    trigger.stop = 0;
  }
  if (trigger.start < 0) {
    return SemanticError("TIMER start_time of guardrail '" + guardrail_name +
                         "' must be >= 0");
  }
  if (trigger.interval <= 0) {
    return SemanticError("TIMER interval of guardrail '" + guardrail_name + "' must be > 0");
  }
  if (trigger.stop != 0 && trigger.stop <= trigger.start) {
    return SemanticError("TIMER stop_time of guardrail '" + guardrail_name +
                         "' must be after start_time");
  }
  return OkStatus();
}

Result<GuardrailMeta> AnalyzeMeta(const GuardrailDecl& decl) {
  GuardrailMeta meta;
  for (const MetaAttr& attr : decl.meta) {
    const std::string loc = " (guardrail '" + decl.name + "', line " + std::to_string(attr.line) + ")";
    if (attr.key == "severity") {
      OSGUARD_ASSIGN_OR_RETURN(std::string s, attr.value.AsString());
      if (s == "info") {
        meta.severity = Severity::kInfo;
      } else if (s == "warning") {
        meta.severity = Severity::kWarning;
      } else if (s == "critical") {
        meta.severity = Severity::kCritical;
      } else {
        return SemanticError("severity must be info|warning|critical" + loc);
      }
    } else if (attr.key == "cooldown") {
      OSGUARD_ASSIGN_OR_RETURN(int64_t ns, attr.value.AsInt());
      if (ns < 0) {
        return SemanticError("cooldown must be >= 0" + loc);
      }
      meta.cooldown = ns;
    } else if (attr.key == "hysteresis") {
      OSGUARD_ASSIGN_OR_RETURN(int64_t n, attr.value.AsInt());
      if (n < 1) {
        return SemanticError("hysteresis must be >= 1" + loc);
      }
      meta.hysteresis = static_cast<int>(n);
    } else if (attr.key == "enabled") {
      OSGUARD_ASSIGN_OR_RETURN(meta.enabled, attr.value.AsBool());
    } else if (attr.key == "description") {
      OSGUARD_ASSIGN_OR_RETURN(meta.description, attr.value.AsString());
    } else if (attr.key == "criticality") {
      OSGUARD_ASSIGN_OR_RETURN(std::string s, attr.value.AsString());
      if (s == "critical") {
        meta.criticality = Criticality::kCritical;
      } else if (s == "standard") {
        meta.criticality = Criticality::kStandard;
      } else if (s == "besteffort") {
        meta.criticality = Criticality::kBestEffort;
      } else {
        return SemanticError("criticality must be critical|standard|besteffort" + loc);
      }
    } else {
      return SemanticError("unknown meta attribute '" + attr.key + "'" + loc);
    }
  }
  return meta;
}

Result<GuardrailHealth> AnalyzeHealth(const GuardrailDecl& decl) {
  GuardrailHealth health;
  if (!decl.has_health) {
    return health;  // unsupervised
  }
  health.supervised = true;
  for (const MetaAttr& attr : decl.health) {
    const std::string loc = " (guardrail '" + decl.name + "', line " + std::to_string(attr.line) + ")";
    if (attr.key == "budget_steps") {
      OSGUARD_ASSIGN_OR_RETURN(health.budget_steps, attr.value.AsInt());
      if (health.budget_steps < 0) {
        return SemanticError("budget_steps must be >= 0" + loc);
      }
    } else if (attr.key == "budget_ns") {
      // A wall-clock deadline would let host speed decide an outcome.
      return SemanticError(
          "budget_ns is not supported: bound an evaluation with budget_steps, which counts "
          "VM instructions and replays exactly" + loc);
    } else if (attr.key == "flap_window") {
      OSGUARD_ASSIGN_OR_RETURN(health.flap_window, attr.value.AsInt());
      if (health.flap_window <= 0) {
        return SemanticError("flap_window must be > 0" + loc);
      }
    } else if (attr.key == "flap_threshold") {
      OSGUARD_ASSIGN_OR_RETURN(int64_t n, attr.value.AsInt());
      if (n < 1) {
        return SemanticError("flap_threshold must be >= 1" + loc);
      }
      health.flap_threshold = static_cast<int>(n);
    } else if (attr.key == "quarantine") {
      OSGUARD_ASSIGN_OR_RETURN(int64_t n, attr.value.AsInt());
      if (n < 1) {
        return SemanticError("quarantine must be >= 1" + loc);
      }
      health.quarantine = static_cast<int>(n);
    } else if (attr.key == "probe_every") {
      OSGUARD_ASSIGN_OR_RETURN(int64_t n, attr.value.AsInt());
      if (n < 1) {
        return SemanticError("probe_every must be >= 1" + loc);
      }
      health.probe_every = static_cast<int>(n);
    } else if (attr.key == "reinstate") {
      OSGUARD_ASSIGN_OR_RETURN(int64_t n, attr.value.AsInt());
      if (n < 1) {
        return SemanticError("reinstate must be >= 1" + loc);
      }
      health.reinstate = static_cast<int>(n);
    } else if (attr.key == "probation") {
      OSGUARD_ASSIGN_OR_RETURN(health.probation, attr.value.AsInt());
      if (health.probation < 0) {
        return SemanticError("probation must be >= 0" + loc);
      }
    } else if (attr.key == "ewma_alpha") {
      const double a = attr.value.NumericOr(-1.0);
      if (!attr.value.is_numeric() || a <= 0.0 || a > 1.0) {
        return SemanticError("ewma_alpha must be a number in (0, 1]" + loc);
      }
      health.ewma_alpha = a;
    } else {
      return SemanticError("unknown health attribute '" + attr.key + "'" + loc);
    }
  }
  return health;
}

Result<AnalyzedChaosSite> AnalyzeChaosSite(const ChaosSiteDecl& site) {
  AnalyzedChaosSite out;
  out.name = site.name;
  bool saw_mode = false;
  for (const MetaAttr& attr : site.attrs) {
    const std::string loc =
        " (chaos site '" + site.name + "', line " + std::to_string(attr.line) + ")";
    if (attr.key == "mode") {
      OSGUARD_ASSIGN_OR_RETURN(std::string s, attr.value.AsString());
      if (s == "off") {
        out.mode = ChaosMode::kOff;
      } else if (s == "bernoulli") {
        out.mode = ChaosMode::kBernoulli;
      } else if (s == "schedule") {
        out.mode = ChaosMode::kSchedule;
      } else if (s == "burst") {
        out.mode = ChaosMode::kBurst;
      } else {
        return SemanticError("mode must be off|bernoulli|schedule|burst" + loc);
      }
      saw_mode = true;
    } else if (attr.key == "p") {
      const double p = attr.value.NumericOr(-1.0);
      if (!attr.value.is_numeric() || p < 0.0 || p > 1.0) {
        return SemanticError("p must be a number in [0, 1]" + loc);
      }
      out.p = p;
    } else if (attr.key == "nth") {
      const std::vector<Value>* list = attr.value.IfList();
      if (list == nullptr) {
        // A single index without braces is accepted as a one-element schedule.
        OSGUARD_ASSIGN_OR_RETURN(int64_t n, attr.value.AsInt());
        if (n < 0) {
          return SemanticError("nth indices must be >= 0" + loc);
        }
        out.nth.assign(1, static_cast<uint64_t>(n));
        continue;
      }
      for (const Value& element : *list) {
        OSGUARD_ASSIGN_OR_RETURN(int64_t n, element.AsInt());
        if (n < 0) {
          return SemanticError("nth indices must be >= 0" + loc);
        }
        out.nth.push_back(static_cast<uint64_t>(n));
      }
      std::sort(out.nth.begin(), out.nth.end());
      out.nth.erase(std::unique(out.nth.begin(), out.nth.end()), out.nth.end());
    } else if (attr.key == "period") {
      OSGUARD_ASSIGN_OR_RETURN(out.period, attr.value.AsInt());
      if (out.period <= 0) {
        return SemanticError("period must be > 0" + loc);
      }
    } else if (attr.key == "burst") {
      OSGUARD_ASSIGN_OR_RETURN(out.burst, attr.value.AsInt());
      if (out.burst <= 0) {
        return SemanticError("burst must be > 0" + loc);
      }
    } else if (attr.key == "latency") {
      OSGUARD_ASSIGN_OR_RETURN(out.latency, attr.value.AsInt());
      if (out.latency < 0) {
        return SemanticError("latency must be >= 0" + loc);
      }
    } else if (attr.key == "value") {
      if (!attr.value.is_numeric()) {
        return SemanticError("value must be a number" + loc);
      }
      out.value = attr.value.NumericOr(0.0);
    } else {
      return SemanticError("unknown chaos site attribute '" + attr.key + "'" + loc);
    }
  }
  const std::string where = " (chaos site '" + site.name + "', line " +
                            std::to_string(site.line) + ")";
  if (!saw_mode) {
    return SemanticError("chaos site must declare a mode" + where);
  }
  switch (out.mode) {
    case ChaosMode::kOff:
      break;
    case ChaosMode::kBernoulli:
      if (out.p <= 0.0) {
        return SemanticError("bernoulli mode needs p > 0" + where);
      }
      break;
    case ChaosMode::kSchedule:
      if (out.nth.empty()) {
        return SemanticError("schedule mode needs a non-empty nth list" + where);
      }
      break;
    case ChaosMode::kBurst:
      if (out.period <= 0 || out.burst <= 0) {
        return SemanticError("burst mode needs period > 0 and burst > 0" + where);
      }
      if (out.burst > out.period) {
        return SemanticError("burst must not exceed period" + where);
      }
      if (out.p <= 0.0) {
        out.p = 1.0;  // a storm with unspecified p injects every in-window event
      }
      break;
  }
  return out;
}

Result<AnalyzedChaos> AnalyzeChaos(const ChaosDecl& decl) {
  AnalyzedChaos out;
  for (const MetaAttr& attr : decl.attrs) {
    const std::string loc = " (chaos block, line " + std::to_string(attr.line) + ")";
    if (attr.key == "seed") {
      OSGUARD_ASSIGN_OR_RETURN(int64_t seed, attr.value.AsInt());
      if (seed < 0) {
        return SemanticError("seed must be >= 0" + loc);
      }
      out.seed = static_cast<uint64_t>(seed);
      out.has_seed = true;
    } else {
      return SemanticError("unknown chaos attribute '" + attr.key + "'" + loc);
    }
  }
  std::unordered_set<std::string> names;
  for (const ChaosSiteDecl& site : decl.sites) {
    if (!names.insert(site.name).second) {
      return SemanticError("duplicate chaos site '" + site.name + "' (line " +
                           std::to_string(site.line) + ")");
    }
    OSGUARD_ASSIGN_OR_RETURN(AnalyzedChaosSite analyzed, AnalyzeChaosSite(site));
    out.sites.push_back(std::move(analyzed));
  }
  return out;
}

Result<AnalyzedPersist> AnalyzePersist(const PersistDecl& decl) {
  AnalyzedPersist out;
  for (const MetaAttr& attr : decl.attrs) {
    const std::string loc = " (persist block, line " + std::to_string(attr.line) + ")";
    if (attr.key == "interval") {
      OSGUARD_ASSIGN_OR_RETURN(int64_t interval, attr.value.AsInt());
      if (interval <= 0) {
        return SemanticError("interval must be a positive duration" + loc);
      }
      out.snapshot_interval = interval;
    } else if (attr.key == "journal_budget") {
      OSGUARD_ASSIGN_OR_RETURN(int64_t budget, attr.value.AsInt());
      if (budget < 0) {
        return SemanticError("journal_budget must be >= 0 bytes (0 = unbounded)" + loc);
      }
      out.journal_budget = static_cast<uint64_t>(budget);
    } else {
      return SemanticError("unknown persist attribute '" + attr.key +
                           "' (expected interval or journal_budget)" + loc);
    }
  }
  return out;
}

Result<AnalyzedRetention> AnalyzeRetention(const RetentionDecl& decl) {
  AnalyzedRetention out;
  for (const MetaAttr& attr : decl.attrs) {
    const std::string loc = " (retention block, line " + std::to_string(attr.line) + ")";
    if (attr.key == "scan_chunk") {
      OSGUARD_ASSIGN_OR_RETURN(int64_t chunk, attr.value.AsInt());
      if (chunk <= 0) {
        return SemanticError("scan_chunk must be > 0 slots" + loc);
      }
      out.scan_chunk = static_cast<uint64_t>(chunk);
    } else {
      return SemanticError("unknown retention attribute '" + attr.key +
                           "' (expected scan_chunk)" + loc);
    }
  }
  std::unordered_set<std::string> prefixes;
  for (const RetentionNamespaceDecl& ns : decl.namespaces) {
    if (ns.prefix.empty()) {
      return SemanticError("retention namespace prefix must not be empty (line " +
                           std::to_string(ns.line) + ")");
    }
    if (!prefixes.insert(ns.prefix).second) {
      return SemanticError("duplicate retention namespace '" + ns.prefix + "' (line " +
                           std::to_string(ns.line) + ")");
    }
    AnalyzedRetentionNamespace out_ns;
    out_ns.prefix = ns.prefix;
    out_ns.line = ns.line;
    for (const MetaAttr& attr : ns.attrs) {
      const std::string loc =
          " (retention namespace '" + ns.prefix + "', line " + std::to_string(attr.line) + ")";
      if (attr.key == "max_keys") {
        OSGUARD_ASSIGN_OR_RETURN(int64_t max_keys, attr.value.AsInt());
        if (max_keys < 0) {
          return SemanticError("max_keys must be >= 0 (0 = no key budget)" + loc);
        }
        out_ns.max_keys = static_cast<uint64_t>(max_keys);
      } else if (attr.key == "idle_ttl") {
        OSGUARD_ASSIGN_OR_RETURN(int64_t ttl, attr.value.AsInt());
        if (ttl < 0) {
          return SemanticError("idle_ttl must be a non-negative duration" + loc);
        }
        out_ns.idle_ttl = ttl;
      } else {
        return SemanticError("unknown retention namespace attribute '" + attr.key +
                             "' (expected max_keys or idle_ttl)" + loc);
      }
    }
    if (out_ns.max_keys == 0 && out_ns.idle_ttl <= 0) {
      return SemanticError("retention namespace '" + ns.prefix +
                           "' declares neither max_keys nor idle_ttl (line " +
                           std::to_string(ns.line) + ")");
    }
    out.namespaces.push_back(std::move(out_ns));
  }
  return out;
}

}  // namespace

Result<Value> EvalConst(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kUnary: {
      OSGUARD_ASSIGN_OR_RETURN(Value operand, EvalConst(*expr.children[0]));
      if (expr.unary_op == UnaryOp::kNeg) {
        if (operand.type() == ValueType::kInt) {
          return Value(-operand.AsInt().value());
        }
        if (operand.type() == ValueType::kFloat) {
          return Value(-operand.AsFloat().value());
        }
        return SemanticError("cannot negate " + operand.ToString());
      }
      OSGUARD_ASSIGN_OR_RETURN(bool b, operand.AsBool());
      return Value(!b);
    }
    case ExprKind::kBinary: {
      OSGUARD_ASSIGN_OR_RETURN(Value lhs, EvalConst(*expr.children[0]));
      OSGUARD_ASSIGN_OR_RETURN(Value rhs, EvalConst(*expr.children[1]));
      const bool both_int =
          lhs.type() == ValueType::kInt && rhs.type() == ValueType::kInt;
      const double a = lhs.NumericOr(0.0);
      const double b = rhs.NumericOr(0.0);
      const bool lhs_ok = lhs.is_numeric() || lhs.type() == ValueType::kBool;
      const bool rhs_ok = rhs.is_numeric() || rhs.type() == ValueType::kBool;
      if (!lhs_ok || !rhs_ok) {
        return SemanticError("constant expression needs numeric operands: " + expr.ToString());
      }
      switch (expr.binary_op) {
        case BinaryOp::kAdd:
          return both_int ? Value(lhs.AsInt().value() + rhs.AsInt().value()) : Value(a + b);
        case BinaryOp::kSub:
          return both_int ? Value(lhs.AsInt().value() - rhs.AsInt().value()) : Value(a - b);
        case BinaryOp::kMul:
          return both_int ? Value(lhs.AsInt().value() * rhs.AsInt().value()) : Value(a * b);
        case BinaryOp::kDiv:
          if (b == 0.0) {
            return SemanticError("constant division by zero: " + expr.ToString());
          }
          return Value(a / b);
        case BinaryOp::kMod:
          if (b == 0.0) {
            return SemanticError("constant modulo by zero: " + expr.ToString());
          }
          return Value(std::fmod(a, b));
        case BinaryOp::kLt:
          return Value(a < b);
        case BinaryOp::kLe:
          return Value(a <= b);
        case BinaryOp::kGt:
          return Value(a > b);
        case BinaryOp::kGe:
          return Value(a >= b);
        case BinaryOp::kEq:
          return Value(a == b);
        case BinaryOp::kNe:
          return Value(a != b);
        case BinaryOp::kAnd:
          return Value(a != 0.0 && b != 0.0);
        case BinaryOp::kOr:
          return Value(a != 0.0 || b != 0.0);
      }
      return InternalError("unhandled binary op");
    }
    default:
      return SemanticError("expression is not a constant: " + expr.ToString());
  }
}

DslType InferType(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      switch (expr.literal.type()) {
        case ValueType::kInt:
        case ValueType::kFloat:
          return DslType::kNum;
        case ValueType::kBool:
          return DslType::kBool;
        case ValueType::kString:
          return DslType::kStr;
        case ValueType::kList:
          return DslType::kList;
        case ValueType::kNil:
          return DslType::kNil;
      }
      return DslType::kAny;
    case ExprKind::kIdent:
      return DslType::kAny;  // implicit LOAD: dynamically typed
    case ExprKind::kList:
      return DslType::kList;
    case ExprKind::kUnary:
      return expr.unary_op == UnaryOp::kNot ? DslType::kBool : DslType::kNum;
    case ExprKind::kBinary:
      switch (expr.binary_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          return DslType::kNum;
        default:
          return DslType::kBool;
      }
    case ExprKind::kCall: {
      const Builtin* builtin = FindBuiltin(expr.name);
      return builtin != nullptr ? builtin->result : DslType::kAny;
    }
  }
  return DslType::kAny;
}

Result<AnalyzedSpec> Analyze(SpecFile spec) {
  AnalyzedSpec analyzed;
  std::unordered_set<std::string> names;
  for (GuardrailDecl& decl : spec.guardrails) {
    if (!names.insert(decl.name).second) {
      return SemanticError("duplicate guardrail name '" + decl.name + "'");
    }
    for (TriggerDecl& trigger : decl.triggers) {
      switch (trigger.kind) {
        case TriggerKind::kTimer:
          OSGUARD_RETURN_IF_ERROR(FoldTimerTrigger(trigger, decl.name));
          break;
        case TriggerKind::kFunction:
          if (trigger.function_name.empty()) {
            return SemanticError("FUNCTION trigger of guardrail '" + decl.name +
                                 "' names no function");
          }
          break;
        case TriggerKind::kOnChange:
          if (trigger.watch_key.empty()) {
            return SemanticError("ONCHANGE trigger of guardrail '" + decl.name +
                                 "' names no key");
          }
          break;
      }
    }
    for (const ExprPtr& rule : decl.rules) {
      OSGUARD_RETURN_IF_ERROR(CheckExpr(*rule, ExprContext::kRule));
      const DslType type = InferType(*rule);
      if (type == DslType::kStr || type == DslType::kList || type == DslType::kNil) {
        return SemanticError("rule of guardrail '" + decl.name +
                             "' does not evaluate to a truth value: " + rule->ToString());
      }
    }
    for (const ExprPtr& stmt : decl.actions) {
      OSGUARD_RETURN_IF_ERROR(CheckActionStatement(*stmt));
    }
    for (const ExprPtr& stmt : decl.satisfy_actions) {
      OSGUARD_RETURN_IF_ERROR(CheckActionStatement(*stmt));
    }
    AnalyzedGuardrail out;
    OSGUARD_ASSIGN_OR_RETURN(out.meta, AnalyzeMeta(decl));
    OSGUARD_ASSIGN_OR_RETURN(out.meta.health, AnalyzeHealth(decl));
    out.decl = std::move(decl);
    analyzed.guardrails.push_back(std::move(out));
  }
  if (spec.chaos.has_value()) {
    OSGUARD_ASSIGN_OR_RETURN(AnalyzedChaos chaos, AnalyzeChaos(*spec.chaos));
    analyzed.chaos = std::move(chaos);
  }
  if (spec.persist.has_value()) {
    OSGUARD_ASSIGN_OR_RETURN(AnalyzedPersist persist, AnalyzePersist(*spec.persist));
    analyzed.persist = persist;
  }
  if (spec.retention.has_value()) {
    OSGUARD_ASSIGN_OR_RETURN(AnalyzedRetention retention, AnalyzeRetention(*spec.retention));
    analyzed.retention = std::move(retention);
  }
  return analyzed;
}

}  // namespace osguard
