// The runtime's HelperContext implementation: binds monitor programs to the
// feature store, the action dispatcher, and simulated time.
//
// Missing-data semantics: LOAD of an absent key and aggregates over empty
// windows return nil rather than faulting. Comparisons against nil *do*
// fault (caught by the engine and counted as a monitor error), so rules that
// must be robust at cold start guard themselves:
//
//   rule { COUNT(page_fault_lat, 10s) == 0 || MEAN(page_fault_lat, 10s) <= 2ms }
//
// or use LOAD_OR(key, default). This keeps "no data yet" distinguishable
// from "data says zero", which matters for properties like P1/P4.

#ifndef SRC_RUNTIME_HELPER_ENV_H_
#define SRC_RUNTIME_HELPER_ENV_H_

#include "src/actions/dispatcher.h"
#include "src/chaos/chaos.h"
#include "src/store/feature_store.h"
#include "src/vm/vm.h"

namespace osguard {

class MonitorHelperEnv : public HelperContext {
 public:
  // Both dependencies are borrowed and must outlive the env. `dispatcher`
  // may be null for rule-only execution (actions then fault cleanly).
  MonitorHelperEnv(FeatureStore* store, ActionDispatcher* dispatcher)
      : store_(store), dispatcher_(dispatcher) {}

  // The engine updates the envelope before every program execution.
  void SetEnvelope(ActionEnvelope envelope) { envelope_ = std::move(envelope); }

  // Hot-path envelope refresh: only touches the guardrail-name string when it
  // actually changed, so repeated evaluations of the same monitor never
  // allocate (std::string assignment reuses capacity otherwise).
  void UpdateEnvelope(const std::string& guardrail, Severity severity, SimTime now) {
    if (envelope_.guardrail != guardrail) {
      envelope_.guardrail = guardrail;
    }
    envelope_.severity = severity;
    envelope_.now = now;
  }

  // Attaches the fault-injection engine (borrowed; null detaches). When site
  // runtime.helper_fail injects, the helper call fails with a clean
  // ExecutionError before touching the store — the engine's monitor-error
  // path (count, report, no actions) is exactly what gets exercised.
  void SetChaos(ChaosEngine* chaos) {
    chaos_ = chaos;
    helper_fail_site_ =
        chaos != nullptr ? chaos->RegisterSite(kChaosSiteHelperFail) : kInvalidChaosSite;
  }

  Result<Value> CallHelper(HelperId id, std::span<const Value> args) override;

  // kCallKeyed fast path: store/aggregate helpers (the only ones the
  // verifier admits in a keyed call) dispatch on the pre-resolved slot id,
  // skipping the string hash probe entirely. Slots the store doesn't know
  // about (a fuzzed or stale program) fall back to the string path on the
  // constant key, so the hint is purely an optimization.
  Result<Value> CallHelperKeyed(HelperId id, uint32_t slot, const Value& key,
                                std::span<const Value> rest) override;

  SimTime now() const override { return envelope_.now; }

 private:
  // The helper body after the single runtime.helper_fail chaos draw.
  Result<Value> CallHelperUnchecked(HelperId id, std::span<const Value> args);
  // Store and aggregate helpers, on a key name (std::string_view) or a slot
  // (KeyId); `rest` holds the arguments after the key.
  template <typename Key>
  Result<Value> StoreHelper(HelperId id, Key key, std::span<const Value> rest);
  template <typename Key>
  Result<Value> AggregateHelper(HelperId id, Key key, std::span<const Value> rest);
  Result<Value> MathHelper(HelperId id, std::span<const Value> args);

  FeatureStore* store_;
  ActionDispatcher* dispatcher_;
  ActionEnvelope envelope_;
  ChaosEngine* chaos_ = nullptr;
  ChaosSiteId helper_fail_site_ = kInvalidChaosSite;
};

}  // namespace osguard

#endif  // SRC_RUNTIME_HELPER_ENV_H_
