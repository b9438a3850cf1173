#include "src/runtime/governor/governor.h"

#include <algorithm>

#include "src/support/logging.h"

namespace osguard {

std::string_view GovernorModeName(GovernorMode mode) {
  switch (mode) {
    case GovernorMode::kFull:
      return "full";
    case GovernorMode::kSampled:
      return "sampled";
    case GovernorMode::kCriticalOnly:
      return "critical-only";
    case GovernorMode::kFailStatic:
      return "fail-static";
  }
  return "?";
}

void OverloadGovernor::Configure(const GovernorOptions& options, FeatureStore* store) {
  options_ = options;
  options_.sample_every = std::max<uint64_t>(options_.sample_every, 1);
  options_.dwell_up = std::max(options_.dwell_up, 1);
  options_.dwell_down = std::max(options_.dwell_down, 1);
  options_.alpha = std::clamp(options_.alpha, 1e-6, 1.0);
  store_ = store;
  if (options_.enabled && store_ != nullptr) {
    k_mode_ = store_->InternKey("engine.governor.mode");
    k_transitions_ = store_->InternKey("engine.governor.transitions");
    k_sheds_ = store_->InternKey("engine.governor.sheds");
    k_static_ = store_->InternKey("engine.governor.static_applies");
    // Cached ids must survive retention (docs/STORE.md pin contract).
    store_->Pin(k_mode_);
    store_->Pin(k_transitions_);
    store_->Pin(k_sheds_);
    store_->Pin(k_static_);
  }
}

GovernorDecision OverloadGovernor::Admit(Criticality criticality, uint64_t attempt,
                                         uint64_t static_epoch_seen) {
  switch (mode_) {
    case GovernorMode::kFull:
      return GovernorDecision::kEvaluate;
    case GovernorMode::kSampled:
      if (criticality == Criticality::kBestEffort) {
        if ((attempt - 1) % options_.sample_every != 0) {
          ++stats_.sheds_besteffort;
          return GovernorDecision::kShed;
        }
        ++stats_.sampled_evals;
      }
      return GovernorDecision::kEvaluate;
    case GovernorMode::kCriticalOnly:
      if (criticality == Criticality::kCritical) {
        return GovernorDecision::kEvaluate;
      }
      if (criticality == Criticality::kBestEffort) {
        ++stats_.sheds_besteffort;
      } else {
        ++stats_.sheds_standard;
      }
      return GovernorDecision::kShed;
    case GovernorMode::kFailStatic:
      if (criticality == Criticality::kCritical) {
        if (static_epoch_seen != fail_static_epoch_) {
          // Entering this episode: the caller pins the corrective action as
          // the fail-static default (counted via CountStaticApply).
          return GovernorDecision::kStatic;
        }
        ++stats_.static_suppressed;
        return GovernorDecision::kShed;
      }
      if (criticality == Criticality::kBestEffort) {
        ++stats_.sheds_besteffort;
      } else {
        ++stats_.sheds_standard;
      }
      return GovernorDecision::kShed;
  }
  return GovernorDecision::kEvaluate;
}

void OverloadGovernor::OnCalloutEnd(SimTime now, uint64_t evals_cum) {
  if (!options_.enabled) {
    return;
  }
  ++stats_.callouts;
  const double cost = static_cast<double>(evals_cum - last_evals_);
  const double gap = static_cast<double>(std::max<SimTime>(now - last_now_, 1));
  last_evals_ = evals_cum;
  last_now_ = now;
  const double depth =
      probe_ ? static_cast<double>(probe_()) : 0.0;
  const double bytes =
      bytes_probe_ ? static_cast<double>(bytes_probe_()) : 0.0;
  if (!primed_) {
    // Seed the EWMAs with the first observation instead of decaying up from
    // zero — the ladder must not spend its first dwell window blind.
    primed_ = true;
    cost_ewma_ = cost;
    gap_ewma_ = gap;
    depth_ewma_ = depth;
    bytes_ewma_ = bytes;
  } else {
    const double a = options_.alpha;
    cost_ewma_ = a * cost + (1.0 - a) * cost_ewma_;
    gap_ewma_ = a * gap + (1.0 - a) * gap_ewma_;
    depth_ewma_ = a * depth + (1.0 - a) * depth_ewma_;
    bytes_ewma_ = a * bytes + (1.0 - a) * bytes_ewma_;
  }
  // Pressure: evaluations per simulated second.
  pressure_ = cost_ewma_ / std::max(gap_ewma_, 1.0) * 1e9;
  const bool bytes_gated = options_.store_bytes_up > 0.0;
  const bool over = pressure_ > options_.pressure_up || depth_ewma_ > options_.depth_up ||
                    (bytes_gated && bytes_ewma_ > options_.store_bytes_up);
  const bool under = pressure_ < options_.pressure_down &&
                     depth_ewma_ < options_.depth_down &&
                     (!bytes_gated || bytes_ewma_ < options_.store_bytes_down);
  streak_up_ = over ? streak_up_ + 1 : 0;
  streak_down_ = under ? streak_down_ + 1 : 0;
  if (over && streak_up_ >= options_.dwell_up && mode_ != GovernorMode::kFailStatic) {
    mode_ = static_cast<GovernorMode>(static_cast<uint8_t>(mode_) + 1);
    streak_up_ = 0;
    streak_down_ = 0;
    ++stats_.transitions;
    ++stats_.escalations;
    if (mode_ == GovernorMode::kFailStatic) {
      ++fail_static_epoch_;
    }
    OSGUARD_LOG(kDebug) << "governor escalated to " << GovernorModeName(mode_)
                        << " (pressure " << pressure_ << ", depth " << depth_ewma_ << ")";
  } else if (under && streak_down_ >= options_.dwell_down &&
             mode_ != GovernorMode::kFull) {
    mode_ = static_cast<GovernorMode>(static_cast<uint8_t>(mode_) - 1);
    streak_up_ = 0;
    streak_down_ = 0;
    ++stats_.transitions;
    ++stats_.deescalations;
    OSGUARD_LOG(kDebug) << "governor de-escalated to " << GovernorModeName(mode_)
                        << " (pressure " << pressure_ << ")";
  }
}

void OverloadGovernor::Publish() {
  if (!options_.enabled || store_ == nullptr || k_mode_ == kInvalidKeyId) {
    return;
  }
  const int64_t mode = static_cast<int64_t>(mode_);
  if (!keys_published_ || mode != pub_mode_) {
    keys_published_ = true;
    pub_mode_ = mode;
    store_->Save(k_mode_, Value(mode));
  }
  if (stats_.transitions != pub_transitions_) {
    pub_transitions_ = stats_.transitions;
    store_->Save(k_transitions_, Value(static_cast<int64_t>(stats_.transitions)));
  }
  const uint64_t sheds = stats_.sheds_besteffort + stats_.sheds_standard +
                         stats_.static_suppressed;
  if (sheds != pub_sheds_) {
    pub_sheds_ = sheds;
    store_->Save(k_sheds_, Value(static_cast<int64_t>(sheds)));
  }
  if (stats_.static_applies != pub_static_) {
    pub_static_ = stats_.static_applies;
    store_->Save(k_static_, Value(static_cast<int64_t>(stats_.static_applies)));
  }
}

}  // namespace osguard
