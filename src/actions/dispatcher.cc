#include "src/actions/dispatcher.h"

#include <algorithm>

namespace osguard {

ActionDispatcher::ActionDispatcher(Reporter* reporter, PolicyRegistry* registry,
                                   RetrainQueue* retrain_queue, TaskControl* task_control)
    : reporter_(reporter),
      registry_(registry),
      retrain_queue_(retrain_queue),
      task_control_(task_control != nullptr ? task_control : &fallback_task_control_) {}

void ActionDispatcher::SetRetryOptions(RetryOptions options) {
  options.max_attempts = std::max(1, options.max_attempts);
  options.backoff_base = std::max<Duration>(0, options.backoff_base);
  options.backoff_multiplier = std::max(1.0, options.backoff_multiplier);
  retry_ = options;
}

void ActionDispatcher::SetChaos(ChaosEngine* chaos) {
  chaos_ = chaos;
  fail_site_ = chaos != nullptr ? chaos->RegisterSite(kChaosSiteDispatchFail)
                                : kInvalidChaosSite;
}

void ActionDispatcher::SetReplaceFallbacks(std::vector<std::string> policies) {
  replace_fallbacks_ = std::move(policies);
}

Result<Value> ActionDispatcher::RunAction(HelperId id, std::span<const Value> args,
                                          const ActionEnvelope& envelope) {
  switch (id) {
    case HelperId::kReport:
      return DoReport(args, envelope);
    case HelperId::kReplace:
      return DoReplace(args, envelope);
    case HelperId::kRetrain:
      return DoRetrain(args, envelope);
    case HelperId::kDeprioritize:
      return DoDeprioritize(args, envelope);
    default:
      return InternalError("helper is not an action");
  }
}

Result<Value> ActionDispatcher::Dispatch(HelperId id, std::span<const Value> args,
                                         const ActionEnvelope& envelope) {
  Result<Value> result = DispatchChain(id, args, envelope);
  ++stats_.dispatches;
  return result;
}

Result<Value> ActionDispatcher::DispatchChain(HelperId id, std::span<const Value> args,
                                              const ActionEnvelope& envelope) {
  const int max_attempts = std::max(1, retry_.max_attempts);
  Duration backoff = retry_.backoff_base;
  std::vector<Duration> schedule;
  Result<Value> result = Value();
  int attempts = 0;
  for (;;) {
    ++attempts;
    bool injected = false;
    if (chaos_ != nullptr && fail_site_ != kInvalidChaosSite) {
      injected = chaos_->ShouldInject(fail_site_, envelope.now);
    }
    if (injected) {
      ++stats_.injected_failures;
    }
    result = injected ? Result<Value>(ExecutionError(
                            "injected action failure (chaos site actions.dispatch_fail)"))
                      : RunAction(id, args, envelope);
    if (result.ok() || attempts >= max_attempts) {
      break;
    }
    // The simulator cannot sleep: the backoff delay is recorded (and would
    // be honored by a wall-clock host) rather than waited out.
    schedule.push_back(backoff);
    backoff = static_cast<Duration>(static_cast<double>(backoff) * retry_.backoff_multiplier);
    ++stats_.retries;
    if (store_ != nullptr) {
      store_->Increment(kActionRetriesKey, 1.0);
    }
  }
  if (!schedule.empty()) {
    last_backoff_schedule_ = std::move(schedule);
  }
  if (!result.ok()) {
    ++stats_.failures;
    if (store_ != nullptr) {
      store_->Increment(kActionFailuresKey, 1.0);
    }
    if (id == HelperId::kReplace) {
      // Fallback chain: tried exactly once per exhausted chain.
      Result<Value> fallback = RunReplaceFallback(args, envelope);
      if (fallback.ok()) {
        return fallback;
      }
    }
  }
  return result;
}

// Tries the configured fallback policies for an exhausted REPLACE chain.
// Returns the rebound count if a fallback engaged, or the original error.
Result<Value> ActionDispatcher::RunReplaceFallback(std::span<const Value> args,
                                                   const ActionEnvelope& envelope) {
  if (replace_fallbacks_.empty() || args.size() < 2) {
    return ExecutionError("no REPLACE fallback configured");
  }
  auto old_policy = args[0].AsString();
  if (!old_policy.ok()) {
    return old_policy.status();
  }
  for (const std::string& candidate : replace_fallbacks_) {
    auto rebound = registry_->Replace(old_policy.value(), candidate, envelope.now);
    if (!rebound.ok()) {
      continue;
    }
    ++stats_.fallbacks;
    if (store_ != nullptr) {
      store_->Increment(kActionFallbacksKey, 1.0);
    }
    if (reporter_ != nullptr) {
      reporter_->Report(ReportRecord{0, envelope.now, ReportKind::kActionPayload,
                                     envelope.severity, envelope.guardrail,
                                     "REPLACE fallback engaged: '" + candidate + "'",
                                     {}});
    }
    return Value(static_cast<int64_t>(rebound.value()));
  }
  return ExecutionError("every REPLACE fallback policy was rejected");
}

Result<Value> ActionDispatcher::DoReport(std::span<const Value> args,
                                         const ActionEnvelope& envelope) {
  ReportRecord record;
  record.time = envelope.now;
  record.kind = ReportKind::kActionPayload;
  record.severity = envelope.severity;
  record.guardrail = envelope.guardrail;
  record.payload.assign(args.begin(), args.end());
  // First string argument doubles as the human-readable message.
  for (const Value& arg : args) {
    if (arg.type() == ValueType::kString) {
      record.message = arg.AsString().value();
      break;
    }
  }
  reporter_->Report(std::move(record));
  ++stats_.reports;
  return Value();
}

Result<Value> ActionDispatcher::DoReplace(std::span<const Value> args,
                                          const ActionEnvelope& envelope) {
  OSGUARD_ASSIGN_OR_RETURN(std::string old_policy, args[0].AsString());
  OSGUARD_ASSIGN_OR_RETURN(std::string new_policy, args[1].AsString());
  OSGUARD_ASSIGN_OR_RETURN(int rebound, registry_->Replace(old_policy, new_policy,
                                                           envelope.now));
  if (rebound > 0) {
    ++stats_.replaces;
  } else {
    ++stats_.replace_noops;
  }
  return Value(static_cast<int64_t>(rebound));
}

Result<Value> ActionDispatcher::DoRetrain(std::span<const Value> args,
                                          const ActionEnvelope& envelope) {
  OSGUARD_ASSIGN_OR_RETURN(std::string model, args[0].AsString());
  std::string data_key;
  if (args.size() > 1) {
    OSGUARD_ASSIGN_OR_RETURN(data_key, args[1].AsString());
  }
  const bool accepted = retrain_queue_->Request(model, data_key, envelope.now);
  if (accepted) {
    ++stats_.retrains_requested;
  } else {
    ++stats_.retrains_suppressed;
  }
  return Value(accepted);
}

Result<Value> ActionDispatcher::DoDeprioritize(std::span<const Value> args,
                                               const ActionEnvelope& envelope) {
  OSGUARD_ASSIGN_OR_RETURN(std::vector<Value> task_values, args[0].AsList());
  OSGUARD_ASSIGN_OR_RETURN(std::vector<Value> priority_values, args[1].AsList());
  if (task_values.size() != priority_values.size()) {
    return InvalidArgumentError(
        "DEPRIORITIZE: task list and priority list have different lengths (" +
        std::to_string(task_values.size()) + " vs " + std::to_string(priority_values.size()) +
        ")");
  }
  std::vector<std::string> tasks;
  std::vector<double> priorities;
  tasks.reserve(task_values.size());
  priorities.reserve(priority_values.size());
  for (const Value& v : task_values) {
    OSGUARD_ASSIGN_OR_RETURN(std::string task, v.AsString());
    tasks.push_back(std::move(task));
  }
  for (const Value& v : priority_values) {
    if (!v.is_numeric()) {
      return InvalidArgumentError("DEPRIORITIZE: priority is not numeric: " + v.ToString());
    }
    priorities.push_back(v.NumericOr(0.0));
  }
  OSGUARD_RETURN_IF_ERROR(task_control_->Deprioritize(tasks, priorities, envelope.now));
  ++stats_.deprioritizes;
  return Value(static_cast<int64_t>(tasks.size()));
}

}  // namespace osguard
