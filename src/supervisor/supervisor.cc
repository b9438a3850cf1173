#include "src/supervisor/supervisor.h"

#include <utility>

namespace osguard {

std::string_view BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

void GuardrailSupervisor::SetStore(FeatureStore* store) {
  store_ = store;
  if (store_ == nullptr) {
    return;
  }
  gk_quarantines_ = store_->InternKey("supervisor.quarantines");
  gk_rollbacks_ = store_->InternKey("supervisor.rollbacks");
  gk_probes_ = store_->InternKey("supervisor.probes");
  gk_skipped_ = store_->InternKey("supervisor.skipped");
  gk_budget_aborts_ = store_->InternKey("supervisor.budget_aborts");
  gk_reinstatements_ = store_->InternKey("supervisor.reinstatements");
  gk_commits_ = store_->InternKey("supervisor.commits");
}

void GuardrailSupervisor::SetChaos(ChaosEngine* chaos) {
  chaos_ = chaos;
  if (chaos_ == nullptr) {
    probe_fail_site_ = kInvalidChaosSite;
    budget_exhaust_site_ = kInvalidChaosSite;
    return;
  }
  probe_fail_site_ = chaos_->RegisterSite(kChaosSiteProbeFail);
  budget_exhaust_site_ = chaos_->RegisterSite(kChaosSiteBudgetExhaust);
}

GuardHealth* GuardrailSupervisor::OnLoad(const std::string& name,
                                         const GuardrailHealth& config, SimTime now,
                                         bool replacing, const GuardHealth* previous) {
  // Read before Install replaces (and frees) the outgoing record.
  const double baseline = previous != nullptr ? previous->fail_ewma : 0.0;
  GuardHealth* out = Install(name, config);
  if (out != nullptr && replacing && config.probation > 0) {
    out->in_probation = true;
    out->probation_until = now + config.probation;
    // The outgoing version's failure score is the bar the deploy must clear.
    out->baseline_fail_ewma = baseline;
  }
  return out;
}

void GuardrailSupervisor::OnUnload(const std::string& name) {
  if (guards_.erase(name) > 0) {
    --stats_.supervised;
  }
}

GuardHealth* GuardrailSupervisor::OnRollback(const std::string& name,
                                             const GuardrailHealth& restored) {
  ++stats_.rollbacks;
  // The restored version is trusted (it ran before the deploy), so it does
  // not re-enter probation.
  GuardHealth* out = Install(name, restored);
  ExportGlobal();
  return out;
}

GuardHealth* GuardrailSupervisor::Install(const std::string& name,
                                          const GuardrailHealth& config) {
  if (!config.supervised) {
    OnUnload(name);
    return nullptr;
  }
  auto record = std::make_unique<GuardHealth>();
  record->config = config;
  GuardHealth* out = record.get();
  if (guards_.insert_or_assign(name, std::move(record)).second) {
    ++stats_.supervised;
  }
  InternKeys(*out, name);
  ExportState(*out);
  ExportScores(*out);
  return out;
}

GateDecision GuardrailSupervisor::Gate(GuardHealth& g, SimTime now) {
  if (g.rollback_pending) {
    // Doomed deploy: suppress further evaluations until the engine swaps it.
    ++g.skipped;
    ++stats_.skipped_evals;
    return GateDecision::kSkip;
  }
  if (g.state == BreakerState::kClosed) {
    if (g.in_probation && now >= g.probation_until) {
      // Window survived — regression check, then commit or roll back.
      if (g.fail_ewma > g.baseline_fail_ewma + 1e-9) {
        g.rollback_pending = true;
        ++g.skipped;
        ++stats_.skipped_evals;
        return GateDecision::kSkip;
      }
      g.in_probation = false;
      ++stats_.commits;
      ExportGlobal();
    }
    return GateDecision::kEvaluate;
  }
  // Breaker open: suppress, except the periodic half-open probe.
  ++g.open_triggers;
  if (g.open_triggers % static_cast<uint64_t>(g.config.probe_every) == 0) {
    g.state = BreakerState::kHalfOpen;
    return GateDecision::kProbe;
  }
  ++g.skipped;
  ++stats_.skipped_evals;
  return GateDecision::kSkip;
}

bool GuardrailSupervisor::InjectBudgetExhaust(SimTime now) {
  return chaos_ != nullptr && budget_exhaust_site_ != kInvalidChaosSite &&
         chaos_->ShouldInject(budget_exhaust_site_, now);
}

void GuardrailSupervisor::OnEvalResult(GuardHealth& g, GateDecision gate,
                                       EvalOutcome outcome, int64_t steps, SimTime now) {
  ++g.evals;
  bool failure = outcome != EvalOutcome::kOk;
  if (outcome == EvalOutcome::kBudgetExceeded) {
    ++g.budget_aborts;
    ++stats_.budget_aborts;
  } else if (outcome == EvalOutcome::kError) {
    ++g.eval_errors;
    ++stats_.eval_errors;
  }
  const double a = g.config.ewma_alpha;
  g.fail_ewma = (1.0 - a) * g.fail_ewma + (failure ? a : 0.0);
  g.cost_ewma_steps = (1.0 - a) * g.cost_ewma_steps + a * static_cast<double>(steps);

  if (gate == GateDecision::kProbe) {
    ++g.probes;
    ++stats_.probes;
    // Chaos can fail a probe whose evaluation was otherwise clean.
    if (!failure && chaos_ != nullptr && probe_fail_site_ != kInvalidChaosSite &&
        chaos_->ShouldInject(probe_fail_site_, now)) {
      failure = true;
    }
    if (failure) {
      ++g.probe_failures;
      ++stats_.probe_failures;
      g.probe_successes = 0;
      g.state = BreakerState::kOpen;
    } else {
      ++g.probe_successes;
      if (g.probe_successes >= g.config.reinstate) {
        g.state = BreakerState::kClosed;
        g.failure_streak = 0;
        g.open_triggers = 0;
        g.probe_successes = 0;
        ++g.reinstatements;
        ++stats_.reinstatements;
      } else {
        g.state = BreakerState::kOpen;
      }
    }
    ExportState(g);
    ExportGlobal();
  } else if (g.state == BreakerState::kClosed) {
    if (failure) {
      RecordFailureEvent(g);
    } else {
      g.failure_streak = 0;
    }
  }
  // Score export is decimated on the healthy hot path (every 8th eval) and
  // immediate on any failure, keeping supervised per-eval overhead near the
  // unsupervised baseline without hiding a degrading score.
  if (failure || (g.evals & 7) == 0) {
    ExportScores(g);
  }
}

void GuardrailSupervisor::OnViolationFlip(GuardHealth& g, SimTime now) {
  g.flips.push_back(now);
  const SimTime cutoff = now - g.config.flap_window;
  while (!g.flips.empty() && g.flips.front() <= cutoff) {
    g.flips.pop_front();
  }
  if (static_cast<int>(g.flips.size()) > g.config.flap_threshold) {
    ++g.flap_events;
    ++stats_.flap_events;
    // Restart the window so one sustained oscillation counts one failure
    // event per overflow, not one per subsequent flip.
    g.flips.clear();
    RecordFailureEvent(g);
  }
}

void GuardrailSupervisor::OnActionFailures(GuardHealth& g, uint64_t delta) {
  if (delta == 0) {
    return;
  }
  g.action_failures += delta;
  RecordFailureEvent(g);
}

bool GuardrailSupervisor::ConsumeQuarantineAction(GuardHealth& g) {
  const bool pending = g.quarantine_action_pending;
  g.quarantine_action_pending = false;
  return pending;
}

const GuardHealth* GuardrailSupervisor::Find(std::string_view name) const {
  auto it = guards_.find(std::string(name));
  return it == guards_.end() ? nullptr : it->second.get();
}

void GuardrailSupervisor::RecordFailureEvent(GuardHealth& g) {
  if (g.state != BreakerState::kClosed) {
    return;
  }
  ++g.failure_streak;
  if (g.failure_streak < g.config.quarantine) {
    return;
  }
  g.state = BreakerState::kOpen;
  g.open_triggers = 0;
  g.probe_successes = 0;
  ++g.quarantines;
  ++stats_.quarantines;
  // The engine runs the corrective action once as the fail-safe default.
  g.quarantine_action_pending = true;
  if (g.in_probation) {
    g.rollback_pending = true;  // a deploy that quarantines in probation rolls back
  }
  ExportState(g);
  ExportGlobal();
}

void GuardrailSupervisor::InternKeys(GuardHealth& g, const std::string& name) {
  if (store_ == nullptr) {
    return;
  }
  g.state_key = store_->InternKey("supervisor." + name + ".state");
  g.health_key = store_->InternKey("supervisor." + name + ".health");
  g.cost_key = store_->InternKey("supervisor." + name + ".cost_ewma");
}

void GuardrailSupervisor::ExportState(GuardHealth& g) {
  if (store_ == nullptr || g.state_key == kInvalidKeyId) {
    return;
  }
  store_->Save(g.state_key, Value(static_cast<int64_t>(g.state)));
}

void GuardrailSupervisor::ExportScores(GuardHealth& g) {
  if (store_ == nullptr || g.health_key == kInvalidKeyId) {
    return;
  }
  store_->Save(g.health_key, Value(HealthScore(g)));
  store_->Save(g.cost_key, Value(g.cost_ewma_steps));
}

void GuardrailSupervisor::ExportGlobal() {
  if (store_ == nullptr || gk_quarantines_ == kInvalidKeyId) {
    return;
  }
  store_->Save(gk_quarantines_, Value(static_cast<int64_t>(stats_.quarantines)));
  store_->Save(gk_rollbacks_, Value(static_cast<int64_t>(stats_.rollbacks)));
  store_->Save(gk_probes_, Value(static_cast<int64_t>(stats_.probes)));
  store_->Save(gk_skipped_, Value(static_cast<int64_t>(stats_.skipped_evals)));
  store_->Save(gk_budget_aborts_, Value(static_cast<int64_t>(stats_.budget_aborts)));
  store_->Save(gk_reinstatements_, Value(static_cast<int64_t>(stats_.reinstatements)));
  store_->Save(gk_commits_, Value(static_cast<int64_t>(stats_.commits)));
}

}  // namespace osguard
