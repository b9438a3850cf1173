#include "src/runtime/helper_env.h"

#include <algorithm>
#include <cmath>

namespace osguard {
namespace {

Result<double> NumericArg(const Value& v, const char* what) {
  if (!v.is_numeric() && v.type() != ValueType::kBool) {
    return InvalidArgumentError(std::string(what) + " is not numeric: " + v.ToString());
  }
  return v.NumericOr(0.0);
}

// Store/aggregate keys arrive as string Values; view them in place — the
// helper protocol never needs an owned copy.
Result<std::string_view> KeyArg(const Value& v) {
  if (const std::string* s = v.IfString()) {
    return std::string_view(*s);
  }
  return InvalidArgumentError("value is not a string: " + v.ToString());
}

// HelperId -> windowed-aggregate kind.
inline AggKind AggKindForHelper(HelperId id) {
  switch (id) {
    case HelperId::kCount:
      return AggKind::kCount;
    case HelperId::kSum:
      return AggKind::kSum;
    case HelperId::kMean:
      return AggKind::kMean;
    case HelperId::kMinAgg:
      return AggKind::kMin;
    case HelperId::kMaxAgg:
      return AggKind::kMax;
    case HelperId::kStdDev:
      return AggKind::kStdDev;
    case HelperId::kRate:
      return AggKind::kRate;
    case HelperId::kNewest:
      return AggKind::kNewest;
    default:
      return AggKind::kOldest;
  }
}

}  // namespace

template <typename Key>
Result<Value> MonitorHelperEnv::StoreHelper(HelperId id, Key key, std::span<const Value> rest) {
  switch (id) {
    case HelperId::kLoad:
      return store_->LoadOr(key, Value());  // nil when missing (see header)
    case HelperId::kLoadOr:
      return store_->LoadOr(key, rest[0]);
    case HelperId::kSave:
      store_->Save(key, rest[0]);
      return Value();
    case HelperId::kIncr: {
      double delta = 1.0;
      if (!rest.empty()) {
        OSGUARD_ASSIGN_OR_RETURN(delta, NumericArg(rest[0], "INCR delta"));
      }
      return Value(store_->Increment(key, delta));
    }
    case HelperId::kExists:
      return Value(store_->Contains(key));
    case HelperId::kObserve: {
      OSGUARD_ASSIGN_OR_RETURN(double sample, NumericArg(rest[0], "OBSERVE sample"));
      store_->Observe(key, envelope_.now, sample);
      return Value();
    }
    default:
      return InternalError("not a store helper");
  }
}

template <typename Key>
Result<Value> MonitorHelperEnv::AggregateHelper(HelperId id, Key key,
                                                std::span<const Value> rest) {
  if (id == HelperId::kQuantile) {
    OSGUARD_ASSIGN_OR_RETURN(double q, NumericArg(rest[0], "QUANTILE q"));
    if (q < 0.0 || q > 1.0) {
      return InvalidArgumentError("QUANTILE q must be in [0, 1]");
    }
    OSGUARD_ASSIGN_OR_RETURN(double window, NumericArg(rest[1], "QUANTILE window"));
    auto result = store_->AggregateQuantile(key, q, static_cast<Duration>(window),
                                            envelope_.now);
    if (!result.ok()) {
      return Value();  // nil on empty window
    }
    return Value(result.value());
  }
  OSGUARD_ASSIGN_OR_RETURN(double window, NumericArg(rest[0], "aggregate window"));
  auto result =
      store_->Aggregate(key, AggKindForHelper(id), static_cast<Duration>(window), envelope_.now);
  if (!result.ok()) {
    return Value();  // nil on empty window / missing series
  }
  return Value(result.value());
}

Result<Value> MonitorHelperEnv::CallHelperKeyed(HelperId id, uint32_t slot, const Value& key,
                                                std::span<const Value> rest) {
  // Single injection point per helper call: the fallback below goes to the
  // unchecked bodies, so it never draws a second chaos decision. The
  // verifier admits keyed calls of keyed helpers only (IsKeyedHelper).
  if (chaos_ != nullptr && chaos_->ShouldInject(helper_fail_site_, envelope_.now)) {
    return ExecutionError("injected helper failure (chaos site runtime.helper_fail)");
  }
  const bool store_helper = IsStoreHelper(id);
  if (slot < store_->key_count()) {
    const KeyId key_id = slot;
    return store_helper ? StoreHelper(id, key_id, rest) : AggregateHelper(id, key_id, rest);
  }
  // Unknown slot: the string path on the constant key.
  OSGUARD_ASSIGN_OR_RETURN(std::string_view name, KeyArg(key));
  return store_helper ? StoreHelper(id, name, rest) : AggregateHelper(id, name, rest);
}

Result<Value> MonitorHelperEnv::CallHelper(HelperId id, std::span<const Value> args) {
  if (chaos_ != nullptr && chaos_->ShouldInject(helper_fail_site_, envelope_.now)) {
    return ExecutionError("injected helper failure (chaos site runtime.helper_fail)");
  }
  return CallHelperUnchecked(id, args);
}

Result<Value> MonitorHelperEnv::CallHelperUnchecked(HelperId id, std::span<const Value> args) {
  if (IsStoreHelper(id) || IsAggregateHelper(id)) {
    OSGUARD_ASSIGN_OR_RETURN(std::string_view key, KeyArg(args[0]));
    return IsStoreHelper(id) ? StoreHelper(id, key, args.subspan(1))
                             : AggregateHelper(id, key, args.subspan(1));
  }
  switch (id) {
    case HelperId::kAbs:
    case HelperId::kSqrt:
    case HelperId::kLog:
    case HelperId::kExp:
    case HelperId::kFloor:
    case HelperId::kCeil:
    case HelperId::kPow:
    case HelperId::kMin2:
    case HelperId::kMax2:
    case HelperId::kClamp:
      return MathHelper(id, args);
    case HelperId::kNow:
      return Value(static_cast<int64_t>(envelope_.now));
    case HelperId::kReport:
    case HelperId::kReplace:
    case HelperId::kRetrain:
    case HelperId::kDeprioritize:
      if (dispatcher_ == nullptr) {
        return FailedPreconditionError("no action dispatcher bound to this monitor context");
      }
      return dispatcher_->Dispatch(id, args, envelope_);
    default:
      break;
  }
  return InternalError("unknown helper id " + std::to_string(static_cast<int>(id)));
}

Result<Value> MonitorHelperEnv::MathHelper(HelperId id, std::span<const Value> args) {
  OSGUARD_ASSIGN_OR_RETURN(double x, NumericArg(args[0], "math argument"));
  switch (id) {
    case HelperId::kAbs:
      return Value(std::abs(x));
    case HelperId::kSqrt:
      if (x < 0.0) {
        return InvalidArgumentError("SQRT of a negative value");
      }
      return Value(std::sqrt(x));
    case HelperId::kLog:
      if (x <= 0.0) {
        return InvalidArgumentError("LOG of a non-positive value");
      }
      return Value(std::log(x));
    case HelperId::kExp:
      return Value(std::exp(x));
    case HelperId::kFloor:
      return Value(std::floor(x));
    case HelperId::kCeil:
      return Value(std::ceil(x));
    case HelperId::kPow: {
      OSGUARD_ASSIGN_OR_RETURN(double y, NumericArg(args[1], "POW exponent"));
      const double r = std::pow(x, y);
      if (!std::isfinite(r)) {
        return InvalidArgumentError("POW result is not finite");
      }
      return Value(r);
    }
    case HelperId::kMin2: {
      OSGUARD_ASSIGN_OR_RETURN(double y, NumericArg(args[1], "MIN2 argument"));
      return Value(std::min(x, y));
    }
    case HelperId::kMax2: {
      OSGUARD_ASSIGN_OR_RETURN(double y, NumericArg(args[1], "MAX2 argument"));
      return Value(std::max(x, y));
    }
    case HelperId::kClamp: {
      OSGUARD_ASSIGN_OR_RETURN(double lo, NumericArg(args[1], "CLAMP lo"));
      OSGUARD_ASSIGN_OR_RETURN(double hi, NumericArg(args[2], "CLAMP hi"));
      if (lo > hi) {
        return InvalidArgumentError("CLAMP bounds are inverted");
      }
      return Value(std::clamp(x, lo, hi));
    }
    default:
      return InternalError("not a math helper");
  }
}

}  // namespace osguard
