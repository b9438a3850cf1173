// Registry of the DSL's builtin functions ("helpers" once compiled).
//
// The paper fixes a deliberately small helper surface: feature-store access
// (SAVE/LOAD, §4.3), windowed aggregates (the statistics rules are written
// over), pure math, and the four corrective actions (Figure 1, right table).
// Keeping the list closed is what makes monitors verifiable and lets the
// compiler reason about crash-free semantics — exactly the eBPF-helper model.

#ifndef SRC_DSL_BUILTINS_H_
#define SRC_DSL_BUILTINS_H_

#include <cstdint>
#include <string_view>
#include <vector>

namespace osguard {

// Stable helper identifiers; these are the function numbers embedded in
// compiled bytecode, so ordering is part of the bytecode format.
enum class HelperId : uint16_t {
  // Feature store (paper §4.3).
  kLoad = 0,       // LOAD(key) -> value (nil if missing)
  kLoadOr = 1,     // LOAD_OR(key, default) -> value
  kSave = 2,       // SAVE(key, value) -> nil
  kIncr = 3,       // INCR(key [, delta]) -> new value
  kExists = 4,     // EXISTS(key) -> bool
  kObserve = 5,    // OBSERVE(key, sample) -> nil (append to time series)
  // Windowed aggregates over time-series keys.
  kCount = 16,     // COUNT(key, window)
  kSum = 17,
  kMean = 18,
  kMinAgg = 19,
  kMaxAgg = 20,
  kStdDev = 21,
  kRate = 22,      // samples per second
  kNewest = 23,
  kOldest = 24,
  kQuantile = 25,  // QUANTILE(key, q, window)
  // Pure math.
  kAbs = 32,
  kSqrt = 33,
  kLog = 34,
  kExp = 35,
  kFloor = 36,
  kCeil = 37,
  kPow = 38,
  kMin2 = 39,      // MIN2(a, b)
  kMax2 = 40,
  kClamp = 41,     // CLAMP(x, lo, hi)
  // Environment.
  kNow = 48,       // NOW() -> current sim time in ns
  // Corrective actions (Figure 1): only legal in action blocks.
  kReport = 64,        // REPORT(payload...)
  kReplace = 65,       // REPLACE(old_policy, new_policy)
  kRetrain = 66,       // RETRAIN(model [, data_key])
  kDeprioritize = 67,  // DEPRIORITIZE({tasks}, {priorities})
};

// The keyed helpers: those whose first argument is a feature-store key.
// Engine::Load binds a constant key of one of these to its store slot
// (kCallKeyed), and the verifier refuses a keyed call of any other helper.
constexpr bool IsStoreHelper(HelperId id) {
  switch (id) {
    case HelperId::kLoad:
    case HelperId::kLoadOr:
    case HelperId::kSave:
    case HelperId::kIncr:
    case HelperId::kExists:
    case HelperId::kObserve:
      return true;
    default:
      return false;
  }
}
constexpr bool IsAggregateHelper(HelperId id) {
  switch (id) {
    case HelperId::kCount:
    case HelperId::kSum:
    case HelperId::kMean:
    case HelperId::kMinAgg:
    case HelperId::kMaxAgg:
    case HelperId::kStdDev:
    case HelperId::kRate:
    case HelperId::kNewest:
    case HelperId::kOldest:
    case HelperId::kQuantile:
      return true;
    default:
      return false;
  }
}
constexpr bool IsKeyedHelper(HelperId id) { return IsStoreHelper(id) || IsAggregateHelper(id); }

// How the compiler treats each argument position.
enum class ArgMode {
  kValue,     // ordinary expression, evaluated to a Value
  kKey,       // bare identifier naming a feature-store key / policy / model;
              // compiled to a string constant
  kNameList,  // brace list of identifiers -> list-of-strings constant
  kValueList, // brace list of expressions -> runtime list value
};

// Coarse result types used by semantic analysis.
enum class DslType {
  kNum,
  kBool,
  kStr,
  kNil,
  kList,
  kAny,
};

std::string_view DslTypeName(DslType type);

struct Builtin {
  HelperId id;
  std::string_view name;
  int min_args;
  int max_args;           // -1 = variadic
  DslType result;
  // Mode for each declared position; variadic tail positions reuse the last
  // entry. Empty means "all kValue".
  std::vector<ArgMode> arg_modes;
  bool is_action;         // only allowed inside action / on_satisfy blocks
};

// Case-sensitive lookup (builtins are conventionally UPPERCASE; quantile
// sugar P50/P90/P95/P99 is resolved by the parser into QUANTILE calls).
const Builtin* FindBuiltin(std::string_view name);

// Lookup by id (for the VM's dispatch metadata and the disassembler).
const Builtin* FindBuiltinById(HelperId id);

// Every registered builtin, for exhaustive tests and documentation dumps.
const std::vector<Builtin>& AllBuiltins();

// Resolves P50/P90/P95/P99 sugar to its quantile, or a negative value if the
// name is not quantile sugar.
double QuantileSugar(std::string_view name);

}  // namespace osguard

#endif  // SRC_DSL_BUILTINS_H_
