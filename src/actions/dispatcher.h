// Action dispatcher: routes the four corrective-action helpers from monitor
// programs to their implementations.
//
//   A1 REPORT       -> Reporter ring + logger
//   A2 REPLACE      -> PolicyRegistry::Replace
//   A3 RETRAIN      -> RetrainQueue::Request (rate-limited, best-effort)
//   A4 DEPRIORITIZE -> TaskControl::Deprioritize
//
// The dispatcher defines the crash-free semantics §4.2 asks for: action
// helpers validate their arguments at run time and convert every failure
// into a reported monitor error rather than propagating a fault into the
// kernel. The only errors returned to the VM are argument-shape violations
// that the verifier cannot see (e.g. REPLACE of an unregistered policy).
//
// Hardening (exercised by the chaos layer, tests/actions_retry_test.cc):
//   * bounded retry — a failing action is re-attempted up to
//     RetryOptions::max_attempts times with a recorded geometric backoff
//     schedule (the simulator cannot sleep, so backoff is accounting the
//     host would honor, not wall-clock delay);
//   * fallback chaining — when a REPLACE chain exhausts its retries, the
//     configured fallback policies are tried in order, at most once per
//     exhausted chain;
//   * failure counters surfaced through the feature store
//     (actions.failures / actions.retries / actions.fallbacks), so
//     guardrails can guard their own corrective actions with ONCHANGE.
//
// The dispatcher reads no host clock: everything it counts or writes is a
// function of the simulation, so a replay reproduces it byte for byte. The
// host-clock cost of an action is the engine's (MonitorStats::action_wall_ns
// times the whole action program, dispatches included).

#ifndef SRC_ACTIONS_DISPATCHER_H_
#define SRC_ACTIONS_DISPATCHER_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/actions/policy_registry.h"
#include "src/actions/report.h"
#include "src/actions/retrain.h"
#include "src/actions/task_control.h"
#include "src/chaos/chaos.h"
#include "src/dsl/builtins.h"
#include "src/store/feature_store.h"
#include "src/store/value.h"
#include "src/support/status.h"
#include "src/support/time.h"

namespace osguard {

// Who is acting, with what authority — threaded from the engine through the
// helper context into every action.
struct ActionEnvelope {
  std::string guardrail;
  Severity severity = Severity::kWarning;
  SimTime now = 0;
};

struct ActionStats {
  uint64_t reports = 0;
  uint64_t replaces = 0;           // calls that rebound >= 1 slot
  uint64_t replace_noops = 0;      // idempotent re-fires
  uint64_t retrains_requested = 0; // accepted by the queue
  uint64_t retrains_suppressed = 0;
  uint64_t deprioritizes = 0;
  uint64_t failures = 0;           // chains that exhausted every attempt
  uint64_t retries = 0;            // re-attempts after a failed attempt
  uint64_t fallbacks = 0;          // fallback engagements (<= exhausted chains)
  uint64_t injected_failures = 0;  // attempts failed by the chaos layer
  uint64_t dispatches = 0;         // action helper calls (a retried chain counts once)
};

// Bounded-retry policy for failing actions. The defaults reproduce the
// pre-hardening behavior exactly: one attempt, no retries.
struct RetryOptions {
  int max_attempts = 1;                     // total attempts per dispatch (>= 1)
  Duration backoff_base = Milliseconds(1);  // delay recorded before retry 1
  double backoff_multiplier = 2.0;          // geometric growth (clamped >= 1)
};

// Feature-store keys the dispatcher increments (see header comment).
inline constexpr char kActionFailuresKey[] = "actions.failures";
inline constexpr char kActionRetriesKey[] = "actions.retries";
inline constexpr char kActionFallbacksKey[] = "actions.fallbacks";

class ActionDispatcher {
 public:
  // All dependencies are borrowed; the owner (Kernel/engine harness) must
  // outlive the dispatcher. `task_control` may be null (falls back to an
  // internal recorder).
  ActionDispatcher(Reporter* reporter, PolicyRegistry* registry, RetrainQueue* retrain_queue,
                   TaskControl* task_control);

  // Executes action helper `id`. Only called with is_action builtins.
  // Applies the retry/fallback policy around the single-attempt helpers.
  Result<Value> Dispatch(HelperId id, std::span<const Value> args,
                         const ActionEnvelope& envelope);

  // Bounded retry with recorded backoff (max_attempts clamped >= 1,
  // backoff_multiplier clamped >= 1 so the schedule is monotone).
  void SetRetryOptions(RetryOptions options);
  const RetryOptions& retry_options() const { return retry_; }

  // Fault injection at site actions.dispatch_fail. Borrowed; may be null.
  void SetChaos(ChaosEngine* chaos);

  // Feature store for the actions.* counters. Borrowed; may be null (no
  // counters published — unit-test dispatchers need no store).
  void SetStore(FeatureStore* store) { store_ = store; }

  // Fallback policies for exhausted REPLACE chains, tried in order; the
  // first one the registry accepts wins. At most one fallback engagement
  // per exhausted chain.
  void SetReplaceFallbacks(std::vector<std::string> policies);

  // Backoff schedule recorded by the most recent dispatch that retried
  // (oldest first). For tests asserting the schedule is monotone.
  std::vector<Duration> last_backoff_schedule() const { return last_backoff_schedule_; }

  ActionStats stats() const { return stats_; }
  // Exhausted-chain count alone: the supervisor snapshots it around every
  // supervised evaluation.
  uint64_t failure_count() const { return stats_.failures; }
  RecordingTaskControl& fallback_task_control() { return fallback_task_control_; }

  // The ActionStats the engine image carries, in image order
  // (src/persist/wire.h).
  template <class Io, class Self>
  static void PersistFields(Io& io, Self& d) {
    io.U64(d.stats_.reports);
    io.U64(d.stats_.replaces);
    io.U64(d.stats_.replace_noops);
    io.U64(d.stats_.retrains_requested);
    io.U64(d.stats_.retrains_suppressed);
    io.U64(d.stats_.deprioritizes);
    io.U64(d.stats_.failures);
    io.U64(d.stats_.retries);
    io.U64(d.stats_.fallbacks);
    io.U64(d.stats_.injected_failures);
    io.U64(d.stats_.dispatches);
  }

 private:
  Result<Value> DispatchChain(HelperId id, std::span<const Value> args,
                              const ActionEnvelope& envelope);
  Result<Value> RunAction(HelperId id, std::span<const Value> args,
                          const ActionEnvelope& envelope);
  Result<Value> RunReplaceFallback(std::span<const Value> args,
                                   const ActionEnvelope& envelope);
  Result<Value> DoReport(std::span<const Value> args, const ActionEnvelope& envelope);
  Result<Value> DoReplace(std::span<const Value> args, const ActionEnvelope& envelope);
  Result<Value> DoRetrain(std::span<const Value> args, const ActionEnvelope& envelope);
  Result<Value> DoDeprioritize(std::span<const Value> args, const ActionEnvelope& envelope);

  Reporter* reporter_;
  PolicyRegistry* registry_;
  RetrainQueue* retrain_queue_;
  TaskControl* task_control_;
  RecordingTaskControl fallback_task_control_;

  RetryOptions retry_;
  ChaosEngine* chaos_ = nullptr;
  ChaosSiteId fail_site_ = kInvalidChaosSite;
  FeatureStore* store_ = nullptr;
  std::vector<std::string> replace_fallbacks_;

  ActionStats stats_;
  std::vector<Duration> last_backoff_schedule_;
};

}  // namespace osguard

#endif  // SRC_ACTIONS_DISPATCHER_H_
