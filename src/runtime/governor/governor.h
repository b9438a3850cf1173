// Overload governor: bounded guardrail-plane cost under callout storms.
//
// The paper's framing is that guardrails must stay cheap and always-on even
// when the system around them misbehaves. This module is the "even when"
// part for load: when callout pressure spikes (a storm of instrumented
// calls, a monitor population that grew too expensive, a host event queue
// backing up), the governor walks a degradation ladder instead of letting
// monitor evaluation cost grow without bound:
//
//   kFull          every monitor evaluates (the governor is pure bookkeeping)
//   kSampled       best-effort monitors evaluate every Nth attempt
//                  (deterministic stride, no randomness), the rest in full
//   kCriticalOnly  only `criticality = critical` monitors evaluate
//   kFailStatic    evaluation stops entirely; each critical monitor's
//                  corrective action runs once as a pinned fail-static
//                  default, so the system degrades into its safe static
//                  configuration instead of running unguarded
//
// Signals are an EWMA of per-callout evaluation cost and an EWMA of host
// queue depth; escalation/de-escalation use distinct thresholds plus dwell
// counts (hysteresis), so the ladder cannot flap on a noisy boundary.
//
// Determinism contract (docs/GOVERNOR.md): in the default configuration the
// cost signal is the *evaluation count* and the time base is *simulated*
// time, so a governed run replays bit-identically — transitions, shed
// decisions, and the engine.governor.* store keys are part of the state the
// differential tests compare. The optional wall-clock mode
// (GovernorOptions::wall_cost) keys the cost signal off host nanoseconds and
// is excluded from differentials.
//
// Off == absent: with `enabled = false` (the default) the engine pays one
// branch per evaluation and nothing else; no keys are interned, no state
// moves, and output is bit-identical to a build without the governor.

#ifndef SRC_RUNTIME_GOVERNOR_GOVERNOR_H_
#define SRC_RUNTIME_GOVERNOR_GOVERNOR_H_

#include <cstdint>
#include <functional>
#include <string_view>

#include "src/dsl/sema.h"
#include "src/store/feature_store.h"
#include "src/support/time.h"

namespace osguard {

// Ladder rungs, ordered by increasing degradation. Values are stable: they
// appear in the persisted engine image and the engine.governor.mode key.
enum class GovernorMode : uint8_t {
  kFull = 0,
  kSampled = 1,
  kCriticalOnly = 2,
  kFailStatic = 3,
};

std::string_view GovernorModeName(GovernorMode mode);

// Per-monitor admission verdict at BeginRuleEval time.
enum class GovernorDecision : uint8_t {
  kEvaluate = 0,  // run the rule as usual
  kShed = 1,      // skip this evaluation (never returned for critical
                  // monitors unless their fail-static default is pinned)
  kStatic = 2,    // pin the corrective action once as a fail-static default,
                  // then skip (critical monitors entering kFailStatic)
};

struct GovernorOptions {
  bool enabled = false;
  // Pressure thresholds in evaluations per simulated second (cost EWMA
  // divided by inter-callout gap EWMA). Escalate above `pressure_up`,
  // de-escalate below `pressure_down`; the gap between them is the
  // hysteresis band.
  double pressure_up = 200000.0;
  double pressure_down = 50000.0;
  // Queue-depth EWMA thresholds (SetQueueProbe; the signal is 0 when no
  // probe is wired, so these never fire for a bare engine).
  double depth_up = 512.0;
  double depth_down = 64.0;
  // Consecutive over/under-threshold callouts before a one-rung move.
  int dwell_up = 4;
  int dwell_down = 32;
  // In kSampled mode a best-effort monitor evaluates on attempts
  // 1, 1+N, 1+2N, ... (deterministic stride; must be >= 1).
  uint64_t sample_every = 4;
  // EWMA smoothing factor in (0, 1].
  double alpha = 0.2;
  // Wall-clock cost mode: the cost signal becomes host nanoseconds per
  // callout and `pressure` becomes wall-busy ns per simulated ns (a
  // utilization ratio), compared against wall_up / wall_down instead of the
  // pressure thresholds. Not replayable — excluded from differentials.
  bool wall_cost = false;
  double wall_up = 0.5;
  double wall_down = 0.1;
  // Store-bytes EWMA thresholds (SetBytesProbe; approximate feature-store
  // bytes sampled once per callout boundary). 0 disables the signal, so a
  // spec without retention pressure wiring behaves exactly as before.
  double store_bytes_up = 0.0;
  double store_bytes_down = 0.0;
};

// Cumulative counters; `critical_sheds` is the invariant governor_test's E12
// storm case pins to zero — no code path increments it, because a
// critical monitor is only ever suppressed *behind a pinned fail-static
// default* (counted as static_suppressed instead).
struct GovernorStats {
  uint64_t callouts = 0;
  uint64_t transitions = 0;
  uint64_t escalations = 0;
  uint64_t deescalations = 0;
  uint64_t sheds_besteffort = 0;
  uint64_t sheds_standard = 0;
  uint64_t sampled_evals = 0;    // best-effort evals that survived sampling
  uint64_t static_applies = 0;   // fail-static defaults pinned
  uint64_t static_suppressed = 0;  // critical evals suppressed behind a default
  uint64_t critical_sheds = 0;   // invariant: stays 0
};

// Full governor state for the persisted engine image (a panic landing
// mid-degradation must warm-restart into the same ladder state — pinned by
// tests/persist_test.cc). Plain data, serialized by Engine::EncodeImage.
struct GovernorImage {
  uint8_t mode = 0;
  bool primed = false;
  double cost_ewma = 0.0;
  double gap_ewma = 0.0;
  double depth_ewma = 0.0;
  SimTime last_now = 0;
  uint64_t last_evals = 0;
  int64_t last_wall_ns = 0;
  double bytes_ewma = 0.0;
  int64_t streak_up = 0;
  int64_t streak_down = 0;
  uint64_t fail_static_epoch = 0;
  GovernorStats stats;
  // Value-diffed publish trackers: they must survive a warm restart or the
  // first post-restart publish would diverge from an uninterrupted run.
  bool keys_published = false;
  int64_t pub_mode = 0;
  uint64_t pub_transitions = 0;
  uint64_t pub_sheds = 0;
  uint64_t pub_static = 0;
};

class OverloadGovernor {
 public:
  // Interns the engine.governor.* export keys when enabled. `store` may be
  // null (bare unit tests); publishing is then a no-op.
  void Configure(const GovernorOptions& options, FeatureStore* store);

  bool enabled() const { return options_.enabled; }
  GovernorMode mode() const { return mode_; }
  const GovernorStats& stats() const { return stats_; }
  // Current fail-static episode; bumped each time the ladder enters
  // kFailStatic, so a monitor's pinned default is re-applied once per
  // episode (Engine::Monitor::gov_static_epoch remembers the episode).
  uint64_t fail_static_epoch() const { return fail_static_epoch_; }
  // Last computed pressure signal (evals/sim-second, or the wall-utilization
  // ratio in wall mode) — introspection for tests and benches.
  double pressure() const { return pressure_; }
  double depth_ewma() const { return depth_ewma_; }
  double bytes_ewma() const { return bytes_ewma_; }

  // Host-queue depth probe, sampled once per callout boundary. The simulated
  // kernel wires its event-queue size; the value must be a deterministic
  // function of simulated state for differential runs.
  void SetQueueProbe(std::function<size_t()> probe) { probe_ = std::move(probe); }

  // Approximate store-bytes probe (third pressure input; docs/STORE.md). The
  // engine wires FeatureStore::approx_bytes, which is a deterministic
  // function of store contents, so the signal is differential-safe.
  void SetBytesProbe(std::function<uint64_t()> probe) { bytes_probe_ = std::move(probe); }

  // Admission for one monitor evaluation. `attempt` is the monitor's 1-based
  // admission counter (the sampling stride clock); `static_epoch_seen` is
  // the fail-static episode whose default the monitor already pinned.
  GovernorDecision Admit(Criticality criticality, uint64_t attempt,
                         uint64_t static_epoch_seen);
  void CountStaticApply() { ++stats_.static_applies; }

  // Callout boundary: feed the cumulative engine counters (the governor
  // diffs them internally), update the EWMAs, and move the ladder.
  void OnCalloutEnd(SimTime now, uint64_t evals_cum, int64_t wall_cum_ns);
  // Value-diffed engine.governor.* store export; callout boundaries only.
  void Publish();

  GovernorImage ExportState() const;
  void RestoreState(const GovernorImage& image);

 private:
  GovernorOptions options_;
  FeatureStore* store_ = nullptr;
  std::function<size_t()> probe_;
  std::function<uint64_t()> bytes_probe_;

  GovernorMode mode_ = GovernorMode::kFull;
  bool primed_ = false;
  double cost_ewma_ = 0.0;
  double gap_ewma_ = 0.0;
  double depth_ewma_ = 0.0;
  double bytes_ewma_ = 0.0;
  double pressure_ = 0.0;
  SimTime last_now_ = 0;
  uint64_t last_evals_ = 0;
  int64_t last_wall_ns_ = 0;
  int64_t streak_up_ = 0;
  int64_t streak_down_ = 0;
  uint64_t fail_static_epoch_ = 0;
  GovernorStats stats_;

  KeyId k_mode_ = kInvalidKeyId;
  KeyId k_transitions_ = kInvalidKeyId;
  KeyId k_sheds_ = kInvalidKeyId;
  KeyId k_static_ = kInvalidKeyId;
  bool keys_published_ = false;
  int64_t pub_mode_ = 0;
  uint64_t pub_transitions_ = 0;
  uint64_t pub_sheds_ = 0;
  uint64_t pub_static_ = 0;
};

}  // namespace osguard

#endif  // SRC_RUNTIME_GOVERNOR_GOVERNOR_H_
