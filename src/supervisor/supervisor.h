// Guardrail lifecycle supervisor — the monitor of monitors (paper §6).
//
// Guardrails are kernel-resident code, so a buggy or flapping monitor can
// hurt the system it is supposed to protect. The supervisor closes that loop
// with four mechanisms, all deterministic in simulated time so they replay
// bit-identically under the chaos engine:
//
//  * Runtime budgets — a per-guardrail VM step cap (Vm::Execute's max_steps
//    kill switch); an over-budget eval is aborted mid-flight and recorded as
//    a failure event.
//  * Health scoring — per-guardrail EWMAs of failure rate and eval cost,
//    plus a trip-flap detector generalizing the E2 hysteresis story, exported
//    as `supervisor.*` feature-store keys.
//  * Circuit breaker — closed -> open (quarantined: evals skipped, the
//    corrective action applied once as the fail-safe default) -> half-open
//    (probe every Nth suppressed trigger; chaos site `supervisor.probe_fail`
//    can force probe failures) -> closed after `reinstate` clean probes.
//  * Probation — a replace-by-name deploy of a supervised guardrail runs
//    under watch for `probation`; if it quarantines or its failure score
//    regresses past the pre-deploy baseline, the engine rolls back to the
//    retained previous program (bit-identical).
//
// The supervisor does not own guardrail programs; the engine keeps the
// rollback snapshot and performs the swap. This file is pure accounting and
// policy, which keeps the layering acyclic (supervisor depends only on
// chaos / dsl / store / support).

#ifndef SRC_SUPERVISOR_SUPERVISOR_H_
#define SRC_SUPERVISOR_SUPERVISOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/chaos/chaos.h"
#include "src/dsl/sema.h"
#include "src/store/feature_store.h"
#include "src/support/time.h"

namespace osguard {

enum class BreakerState {
  kClosed = 0,    // healthy: every trigger evaluates
  kOpen = 1,      // quarantined: triggers are suppressed (except probes)
  kHalfOpen = 2,  // probing: this trigger evaluates; outcome decides the state
};

std::string_view BreakerStateName(BreakerState state);

// What the engine should do with a pending trigger of a supervised guardrail.
enum class GateDecision {
  kEvaluate,  // breaker closed: normal evaluation
  kProbe,     // breaker half-open: evaluate, outcome feeds the breaker
  kSkip,      // breaker open: skip the evaluation entirely
};

// How a supervised evaluation ended, as classified by the engine.
enum class EvalOutcome {
  kOk,              // rule produced a decision (violation or not)
  kError,           // rule faulted (helper error, nil comparison, ...)
  kBudgetExceeded,  // killed by the step cap (or chaos vm.budget_exhaust)
};

// Per-guardrail supervisor record. The engine holds a stable pointer to the
// record of each supervised monitor; unsupervised monitors have none and pay
// a single null check per evaluation (the off == absent property).
struct GuardHealth {
  GuardrailHealth config;

  BreakerState state = BreakerState::kClosed;
  // EWMA of the failure indicator (1 = failed) over gated evaluations and of
  // VM steps per evaluation. Both advance only on evals, so they are a pure
  // function of the (deterministic) eval outcome sequence.
  double fail_ewma = 0.0;
  double cost_ewma_steps = 0.0;
  int failure_streak = 0;       // consecutive failure events toward quarantine
  uint64_t open_triggers = 0;   // triggers seen while open (probe cadence)
  int probe_successes = 0;      // consecutive clean probes toward reinstate

  // Trip-flap detector: timestamps of violated<->satisfied transitions
  // inside the sliding flap_window.
  std::deque<SimTime> flips;

  // Probation bookkeeping for a replace-by-name deploy.
  bool in_probation = false;
  SimTime probation_until = 0;
  double baseline_fail_ewma = 0.0;  // outgoing version's score at deploy time
  bool rollback_pending = false;    // set once; engine applies and clears

  // Set when the breaker opens; the engine consumes it to run the corrective
  // action once as the quarantine default.
  bool quarantine_action_pending = false;

  // Counters (also exported to the store).
  uint64_t evals = 0;
  uint64_t budget_aborts = 0;
  uint64_t eval_errors = 0;
  uint64_t action_failures = 0;
  uint64_t flap_events = 0;
  uint64_t skipped = 0;
  uint64_t probes = 0;
  uint64_t probe_failures = 0;
  uint64_t quarantines = 0;
  uint64_t reinstatements = 0;

  // Interned export keys: supervisor.<name>.{state,health,cost_ewma}.
  KeyId state_key = kInvalidKeyId;
  KeyId health_key = kInvalidKeyId;
  KeyId cost_key = kInvalidKeyId;

  // The protocol fields a monitor's image record carries, in image order
  // (src/persist/wire.h). `config` and the export keys are not persisted:
  // they come from the reloaded spec.
  template <class Io, class Self>
  static void PersistFields(Io& io, Self& g) {
    io.Enum(g.state, BreakerState::kHalfOpen, "breaker state");
    io.F64(g.fail_ewma);
    io.F64(g.cost_ewma_steps);
    io.I64(g.failure_streak);
    io.U64(g.open_triggers);
    io.I64(g.probe_successes);
    io.Seq(g.flips, "flip", [&](auto& flip) { io.I64(flip); });
    io.Bool(g.in_probation);
    io.I64(g.probation_until);
    io.F64(g.baseline_fail_ewma);
    io.Bool(g.rollback_pending);
    io.Bool(g.quarantine_action_pending);
    io.U64(g.evals);
    io.U64(g.budget_aborts);
    io.U64(g.eval_errors);
    io.U64(g.action_failures);
    io.U64(g.flap_events);
    io.U64(g.skipped);
    io.U64(g.probes);
    io.U64(g.probe_failures);
    io.U64(g.quarantines);
    io.U64(g.reinstatements);
  }
};

// Supervisor-wide counters.
struct SupervisorStats {
  uint64_t supervised = 0;  // currently supervised guardrails
  uint64_t budget_aborts = 0;
  uint64_t eval_errors = 0;
  uint64_t flap_events = 0;
  uint64_t quarantines = 0;
  uint64_t skipped_evals = 0;
  uint64_t probes = 0;
  uint64_t probe_failures = 0;
  uint64_t reinstatements = 0;
  uint64_t rollbacks = 0;
  uint64_t commits = 0;  // probation deploys that stuck
};

class GuardrailSupervisor {
 public:
  GuardrailSupervisor() = default;
  GuardrailSupervisor(const GuardrailSupervisor&) = delete;
  GuardrailSupervisor& operator=(const GuardrailSupervisor&) = delete;

  // Export target for supervisor.* keys; null disables export.
  void SetStore(FeatureStore* store);

  // Attaches (or detaches, with null) the chaos engine and registers the
  // supervisor.probe_fail / vm.budget_exhaust sites. Unarmed sites consume
  // no randomness, preserving chaos's off == absent contract.
  void SetChaos(ChaosEngine* chaos);

  // (Re)load of guardrail `name`. Returns the supervisor record, or null for
  // an unsupervised config (any stale record is dropped). `previous` is the
  // outgoing record when this is a replace-by-name (null otherwise); with
  // config.probation > 0 and an actual replace (`replacing`), the new version
  // starts in probation against the outgoing version's health baseline.
  GuardHealth* OnLoad(const std::string& name, const GuardrailHealth& config,
                      SimTime now, bool replacing, const GuardHealth* previous);

  void OnUnload(const std::string& name);

  // Rollback applied by the engine: the record is re-initialized for the
  // restored (pre-deploy) config, not re-entering probation.
  GuardHealth* OnRollback(const std::string& name, const GuardrailHealth& restored);

  // Per-trigger gate; kSkip whenever a rollback is pending. Also finalizes a
  // clean probation (commit) once the window has passed.
  GateDecision Gate(GuardHealth& g, SimTime now);

  // Chaos hook: should this evaluation be forced into a budget abort?
  // (site vm.budget_exhaust; false when no chaos engine is attached)
  bool InjectBudgetExhaust(SimTime now);

  // Outcome of a gated evaluation (`steps` = VM steps the rule consumed).
  // Feeds the EWMAs and drives the breaker; for probes, consults the
  // supervisor.probe_fail chaos site.
  void OnEvalResult(GuardHealth& g, GateDecision gate, EvalOutcome outcome, int64_t steps,
                    SimTime now);

  // A violated <-> satisfied transition (the flap detector's input).
  void OnViolationFlip(GuardHealth& g, SimTime now);

  // `delta` new action-dispatch failures attributed to this guardrail.
  void OnActionFailures(GuardHealth& g, uint64_t delta);

  // True once per breaker opening: the engine runs the corrective action as
  // the quarantine default and the flag clears.
  bool ConsumeQuarantineAction(GuardHealth& g);

  // Health score in [0, 1]: 1 - fail_ewma.
  double HealthScore(const GuardHealth& g) const { return 1.0 - g.fail_ewma; }

  const GuardHealth* Find(std::string_view name) const;
  const SupervisorStats& stats() const { return stats_; }

  // The SupervisorStats the engine image carries, in image order
  // (src/persist/wire.h). Per-guardrail GuardHealth fields ride each
  // monitor's record; `supervised` is recomputed by OnLoad during the reload
  // that precedes a restore, so the image's value matches it.
  template <class Io, class Self>
  static void PersistFields(Io& io, Self& s) {
    io.U64(s.stats_.supervised);
    io.U64(s.stats_.budget_aborts);
    io.U64(s.stats_.eval_errors);
    io.U64(s.stats_.flap_events);
    io.U64(s.stats_.quarantines);
    io.U64(s.stats_.skipped_evals);
    io.U64(s.stats_.probes);
    io.U64(s.stats_.probe_failures);
    io.U64(s.stats_.reinstatements);
    io.U64(s.stats_.rollbacks);
    io.U64(s.stats_.commits);
  }

 private:
  // A fresh record for `config` under `name`, counted, with its export keys
  // interned and its state and scores exported; for an unsupervised config,
  // drops any stale record and returns null.
  GuardHealth* Install(const std::string& name, const GuardrailHealth& config);
  // A failure event (budget abort, eval error, flap overflow, action
  // failure) advances the breaker, and may open it.
  void RecordFailureEvent(GuardHealth& g);
  void ExportState(GuardHealth& g);
  void ExportScores(GuardHealth& g);
  void ExportGlobal();
  void InternKeys(GuardHealth& g, const std::string& name);

  FeatureStore* store_ = nullptr;
  ChaosEngine* chaos_ = nullptr;
  ChaosSiteId probe_fail_site_ = kInvalidChaosSite;
  ChaosSiteId budget_exhaust_site_ = kInvalidChaosSite;

  // Interned supervisor-global export keys (supervisor.quarantines, ...).
  KeyId gk_quarantines_ = kInvalidKeyId;
  KeyId gk_rollbacks_ = kInvalidKeyId;
  KeyId gk_probes_ = kInvalidKeyId;
  KeyId gk_skipped_ = kInvalidKeyId;
  KeyId gk_budget_aborts_ = kInvalidKeyId;
  KeyId gk_reinstatements_ = kInvalidKeyId;
  KeyId gk_commits_ = kInvalidKeyId;

  std::unordered_map<std::string, std::unique_ptr<GuardHealth>> guards_;
  SupervisorStats stats_;
};

}  // namespace osguard

#endif  // SRC_SUPERVISOR_SUPERVISOR_H_
