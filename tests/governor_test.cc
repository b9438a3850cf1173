// Overload governor (docs/GOVERNOR.md), under `ctest -L governor`:
//   * ladder mechanics on a bare OverloadGovernor — escalation/de-escalation
//     with hysteresis dwell, deterministic best-effort sampling stride,
//     fail-static pinning once per episode, state export/restore;
//   * the spec-level `criticality` meta attribute (parse + validation);
//   * kernel integration — a callout storm walks the ladder up, the calm
//     tail walks it back down, critical monitors degrade to their corrective
//     default instead of being shed, and engine.governor.* keys track it;
//   * off == absent — a default-options engine interns no governor keys;
//   * the E12 storm (tests/governor_storm.h) — fail-static reached, full
//     service at the end, no critical shed, and fewer evaluations than the
//     same storm ungoverned.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/persist/wire.h"
#include "src/runtime/engine.h"
#include "src/runtime/governor/governor.h"
#include "src/sim/kernel.h"
#include "src/store/feature_store.h"
#include "src/support/logging.h"
#include "src/support/time.h"
#include "tests/governor_storm.h"

namespace osguard {
namespace {

class GovernorTest : public ::testing::Test {
 protected:
  GovernorTest() { Logger::Global().set_level(LogLevel::kOff); }
};

// Aggressive thresholds so a handful of synthetic callouts moves the ladder.
// alpha = 1.0 makes each callout's signal stand alone (no smoothing), so the
// dwell arithmetic below is exact: the priming callout already counts toward
// the streak, so each rung is climbed on the dwell_up'th hot callout.
GovernorOptions TightOptions() {
  GovernorOptions options;
  options.enabled = true;
  options.pressure_up = 10000.0;   // evals per simulated second
  options.pressure_down = 1000.0;
  options.depth_up = 1e18;         // keep the depth signal out of the way
  options.depth_down = 1e18 - 1;
  options.dwell_up = 2;
  options.dwell_down = 3;
  options.sample_every = 4;
  options.alpha = 1.0;
  return options;
}

// One "hot" callout: 100 evaluations within one simulated microsecond
// (1e8 evals/s, far over pressure_up).
void HotCallout(OverloadGovernor& governor, SimTime& now, uint64_t& evals) {
  now += Microseconds(1);
  evals += 100;
  governor.OnCalloutEnd(now, evals);
}

// One "cold" callout: a single evaluation after a quiet second (1 eval/s,
// far under pressure_down).
void ColdCallout(OverloadGovernor& governor, SimTime& now, uint64_t& evals) {
  now += Seconds(1);
  evals += 1;
  governor.OnCalloutEnd(now, evals);
}

TEST_F(GovernorTest, LadderEscalatesWithDwellAndDeescalatesWithHysteresis) {
  OverloadGovernor governor;
  governor.Configure(TightOptions(), nullptr);
  EXPECT_EQ(governor.mode(), GovernorMode::kFull);

  SimTime now = 0;
  uint64_t evals = 0;
  // dwell_up = 2: one hot callout is not enough (hysteresis), two climb a
  // rung, and the streak resets at each transition.
  HotCallout(governor, now, evals);
  EXPECT_EQ(governor.mode(), GovernorMode::kFull);
  HotCallout(governor, now, evals);
  EXPECT_EQ(governor.mode(), GovernorMode::kSampled);
  HotCallout(governor, now, evals);
  HotCallout(governor, now, evals);
  EXPECT_EQ(governor.mode(), GovernorMode::kCriticalOnly);
  HotCallout(governor, now, evals);
  HotCallout(governor, now, evals);
  EXPECT_EQ(governor.mode(), GovernorMode::kFailStatic);
  EXPECT_EQ(governor.fail_static_epoch(), 1u);
  const uint64_t escalations = governor.stats().escalations;
  EXPECT_EQ(escalations, 3u);

  // Further overload cannot escalate past the last rung.
  HotCallout(governor, now, evals);
  HotCallout(governor, now, evals);
  EXPECT_EQ(governor.mode(), GovernorMode::kFailStatic);
  EXPECT_EQ(governor.stats().escalations, escalations);

  // Recovery takes dwell_down = 3 consecutive unders per rung: 9 cold
  // callouts walk all the way back to full service.
  for (int i = 0; i < 9; ++i) {
    ColdCallout(governor, now, evals);
  }
  EXPECT_EQ(governor.mode(), GovernorMode::kFull);
  EXPECT_EQ(governor.stats().deescalations, 3u);
  EXPECT_EQ(governor.stats().transitions, 6u);
}

TEST_F(GovernorTest, MiddlingPressureInsideHysteresisBandHoldsTheRung) {
  OverloadGovernor governor;
  governor.Configure(TightOptions(), nullptr);
  SimTime now = 0;
  uint64_t evals = 0;
  HotCallout(governor, now, evals);
  HotCallout(governor, now, evals);
  ASSERT_EQ(governor.mode(), GovernorMode::kSampled);
  // ~3000 evals/s sits between pressure_down and pressure_up: neither
  // escalation nor recovery may fire, however long it lasts.
  for (int i = 0; i < 50; ++i) {
    now += Milliseconds(1);
    evals += 3;
    governor.OnCalloutEnd(now, evals);
  }
  EXPECT_EQ(governor.mode(), GovernorMode::kSampled);
  EXPECT_EQ(governor.stats().transitions, 1u);
}

TEST_F(GovernorTest, SampledModeShedsBestEffortOnADeterministicStride) {
  OverloadGovernor governor;
  governor.Configure(TightOptions(), nullptr);
  SimTime now = 0;
  uint64_t evals = 0;
  HotCallout(governor, now, evals);
  HotCallout(governor, now, evals);
  ASSERT_EQ(governor.mode(), GovernorMode::kSampled);

  // Best-effort monitors evaluate on attempts 1, 5, 9, ... (stride 4).
  for (uint64_t attempt = 1; attempt <= 12; ++attempt) {
    const GovernorDecision decision =
        governor.Admit(Criticality::kBestEffort, attempt, 0);
    if ((attempt - 1) % 4 == 0) {
      EXPECT_EQ(decision, GovernorDecision::kEvaluate) << attempt;
    } else {
      EXPECT_EQ(decision, GovernorDecision::kShed) << attempt;
    }
  }
  EXPECT_EQ(governor.stats().sampled_evals, 3u);
  EXPECT_EQ(governor.stats().sheds_besteffort, 9u);
  // Standard and critical monitors are untouched in kSampled.
  EXPECT_EQ(governor.Admit(Criticality::kStandard, 1, 0), GovernorDecision::kEvaluate);
  EXPECT_EQ(governor.Admit(Criticality::kCritical, 1, 0), GovernorDecision::kEvaluate);
}

TEST_F(GovernorTest, CriticalOnlyShedsEverythingElse) {
  OverloadGovernor governor;
  governor.Configure(TightOptions(), nullptr);
  SimTime now = 0;
  uint64_t evals = 0;
  for (int i = 0; i < 4; ++i) {
    HotCallout(governor, now, evals);
  }
  ASSERT_EQ(governor.mode(), GovernorMode::kCriticalOnly);
  EXPECT_EQ(governor.Admit(Criticality::kCritical, 1, 0), GovernorDecision::kEvaluate);
  EXPECT_EQ(governor.Admit(Criticality::kStandard, 1, 0), GovernorDecision::kShed);
  EXPECT_EQ(governor.Admit(Criticality::kBestEffort, 1, 0), GovernorDecision::kShed);
  EXPECT_EQ(governor.stats().sheds_standard, 1u);
  EXPECT_EQ(governor.stats().sheds_besteffort, 1u);
  EXPECT_EQ(governor.stats().critical_sheds, 0u);
}

TEST_F(GovernorTest, FailStaticPinsTheDefaultOncePerEpisode) {
  OverloadGovernor governor;
  governor.Configure(TightOptions(), nullptr);
  SimTime now = 0;
  uint64_t evals = 0;
  for (int i = 0; i < 6; ++i) {
    HotCallout(governor, now, evals);
  }
  ASSERT_EQ(governor.mode(), GovernorMode::kFailStatic);
  const uint64_t episode = governor.fail_static_epoch();
  ASSERT_EQ(episode, 1u);

  // A critical monitor that has not pinned this episode's default gets
  // kStatic exactly once; after recording the episode it is suppressed.
  EXPECT_EQ(governor.Admit(Criticality::kCritical, 1, 0), GovernorDecision::kStatic);
  governor.CountStaticApply();
  EXPECT_EQ(governor.Admit(Criticality::kCritical, 2, episode), GovernorDecision::kShed);
  EXPECT_EQ(governor.Admit(Criticality::kCritical, 3, episode), GovernorDecision::kShed);
  EXPECT_EQ(governor.stats().static_applies, 1u);
  EXPECT_EQ(governor.stats().static_suppressed, 2u);
  // The invariant the bench gate pins: critical monitors are never silently
  // shed without a pinned default.
  EXPECT_EQ(governor.stats().critical_sheds, 0u);

  // Recover, overload again: a NEW episode re-pins the default once.
  for (int i = 0; i < 9; ++i) {
    ColdCallout(governor, now, evals);
  }
  ASSERT_EQ(governor.mode(), GovernorMode::kFull);
  for (int i = 0; i < 6; ++i) {
    HotCallout(governor, now, evals);
  }
  ASSERT_EQ(governor.mode(), GovernorMode::kFailStatic);
  EXPECT_EQ(governor.fail_static_epoch(), 2u);
  EXPECT_EQ(governor.Admit(Criticality::kCritical, 4, episode), GovernorDecision::kStatic);
}

TEST_F(GovernorTest, ExportRestoreRoundTripsTheFullLadderState) {
  OverloadGovernor governor;
  governor.Configure(TightOptions(), nullptr);
  SimTime now = 0;
  uint64_t evals = 0;
  for (int i = 0; i < 4; ++i) {
    HotCallout(governor, now, evals);
  }
  ASSERT_EQ(governor.mode(), GovernorMode::kCriticalOnly);
  (void)governor.Admit(Criticality::kBestEffort, 1, 0);
  std::string image;
  FieldWriter writer(&image);
  OverloadGovernor::PersistFields(writer, governor);

  OverloadGovernor restored;
  restored.Configure(TightOptions(), nullptr);
  FieldReader reader(image, "image");
  OverloadGovernor::PersistFields(reader, restored);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE(reader.done());
  EXPECT_EQ(restored.mode(), governor.mode());
  EXPECT_EQ(restored.fail_static_epoch(), governor.fail_static_epoch());
  EXPECT_EQ(restored.stats().transitions, governor.stats().transitions);
  EXPECT_EQ(restored.stats().sheds_besteffort, governor.stats().sheds_besteffort);

  // The restored ladder continues exactly where the original does: the same
  // two hot callouts escalate both to kFailStatic.
  SimTime now2 = now;
  uint64_t evals2 = evals;
  HotCallout(governor, now, evals);
  HotCallout(governor, now, evals);
  HotCallout(restored, now2, evals2);
  HotCallout(restored, now2, evals2);
  EXPECT_EQ(governor.mode(), GovernorMode::kFailStatic);
  EXPECT_EQ(restored.mode(), governor.mode());
  EXPECT_EQ(restored.stats().transitions, governor.stats().transitions);
  EXPECT_EQ(restored.fail_static_epoch(), governor.fail_static_epoch());
}

// --- The spec-level criticality attribute ---

TEST_F(GovernorTest, CriticalityAttributeParsesAllThreeLevels) {
  Kernel kernel;
  EXPECT_TRUE(kernel
                  .LoadGuardrails(R"(
    guardrail c { trigger: { FUNCTION(f) }, rule: { 1 <= 2 }, action: { REPORT() },
                  meta: { criticality = critical } }
    guardrail s { trigger: { FUNCTION(f) }, rule: { 1 <= 2 }, action: { REPORT() },
                  meta: { criticality = standard } }
    guardrail b { trigger: { FUNCTION(f) }, rule: { 1 <= 2 }, action: { REPORT() },
                  meta: { criticality = besteffort } }
  )")
                  .ok());
  EXPECT_EQ(CriticalityName(Criticality::kCritical), "critical");
  EXPECT_EQ(CriticalityName(Criticality::kStandard), "standard");
  EXPECT_EQ(CriticalityName(Criticality::kBestEffort), "besteffort");
}

TEST_F(GovernorTest, CriticalityAttributeRejectsUnknownLevels) {
  Kernel kernel;
  const Status status = kernel.LoadGuardrails(R"(
    guardrail bad { trigger: { FUNCTION(f) }, rule: { 1 <= 2 }, action: { REPORT() },
                    meta: { criticality = extreme } }
  )");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("criticality"), std::string::npos);
}

// --- Kernel integration: storm -> degrade -> recover ---

constexpr char kGovSpec[] = R"(
  guardrail gov-critical {
    trigger: { FUNCTION(hot_path) },
    rule: { LOAD_OR(sys.pressure, 0) <= 90 },
    action: { SAVE(ctl.safe_mode, true); REPORT("pressure high; safe mode") },
    meta: { severity = critical, criticality = critical }
  }
  guardrail gov-standard {
    trigger: { FUNCTION(hot_path) },
    rule: { LOAD_OR(sys.pressure, 0) <= 95 },
    action: { REPORT("standard watch") }
  }
  guardrail gov-besteffort {
    trigger: { FUNCTION(hot_path) },
    rule: { LOAD_OR(sys.load, 0) <= 1000000 },
    action: { REPORT("besteffort watch") },
    meta: { criticality = besteffort }
  }
)";

EngineOptions GovernedEngineOptions() {
  EngineOptions options;
  options.governor.enabled = true;
  // pressure_up sits well below the storm's critical-only residual rate
  // (1 eval / 100us = 10000/s), so even a fully degraded storm keeps the
  // ladder pinned at the bottom instead of stalling on the boundary.
  options.governor.pressure_up = 5000.0;
  options.governor.pressure_down = 500.0;
  options.governor.depth_up = 1e18;
  options.governor.depth_down = 1e18 - 1;
  options.governor.dwell_up = 2;
  options.governor.dwell_down = 3;
  options.governor.sample_every = 2;
  options.governor.alpha = 0.5;
  return options;
}

double GovKey(Kernel& kernel, const char* key) {
  return kernel.store().LoadOr(key, Value(int64_t{0})).NumericOr(0.0);
}

TEST_F(GovernorTest, StormDegradesAndCalmRecoversThroughTheKernel) {
  Kernel kernel(GovernedEngineOptions());
  ASSERT_TRUE(kernel.LoadGuardrails(kGovSpec).ok());
  OverloadGovernor& governor = kernel.engine().governor();

  // Storm: 3 evaluations per callout, one callout per simulated 100us ->
  // ~30k evals/s, well over pressure_up. The ladder must reach fail-static
  // at least once. (Shedding shrinks the cost signal, so deep in the storm
  // the ladder may oscillate between the bottom rungs — that is by design;
  // asserted is the reached depth, not the exact final rung.)
  SimTime t = Milliseconds(1);
  for (int i = 0; i < 40; ++i) {
    kernel.Run(t);
    kernel.Callout("hot_path");
    t += Microseconds(100);
  }
  EXPECT_GE(governor.fail_static_epoch(), 1u);
  EXPECT_NE(governor.mode(), GovernorMode::kFull);
  EXPECT_GT(governor.stats().sheds_besteffort, 0u);
  EXPECT_GT(governor.stats().sheds_standard, 0u);
  EXPECT_EQ(governor.stats().critical_sheds, 0u);

  // The critical monitor was not silently dropped: entering fail-static ran
  // its corrective action once as the pinned default (safe mode engaged),
  // with an explanatory report under the monitor's own name.
  EXPECT_GE(governor.stats().static_applies, 1u);
  EXPECT_NE(GovKey(kernel, "ctl.safe_mode"), 0.0);
  EXPECT_GE(kernel.engine().reporter().CountFor("gov-critical"), 1u);

  // Ladder state is exported to the store.
  EXPECT_GT(GovKey(kernel, "engine.governor.transitions"), 0.0);
  EXPECT_GT(GovKey(kernel, "engine.governor.sheds"), 0.0);
  EXPECT_GE(GovKey(kernel, "engine.governor.static_applies"), 1.0);

  // Calm tail: one callout per simulated second. Recovery to full service,
  // mirrored in the published mode key.
  for (int i = 0; i < 12; ++i) {
    t += Seconds(1);
    kernel.Run(t);
    kernel.Callout("hot_path");
  }
  EXPECT_EQ(governor.mode(), GovernorMode::kFull);
  EXPECT_EQ(GovKey(kernel, "engine.governor.mode"),
            static_cast<double>(static_cast<int>(GovernorMode::kFull)));
  EXPECT_GE(governor.stats().deescalations, 3u);
}

TEST_F(GovernorTest, DisabledGovernorInternsNoKeysAndShedsNothing) {
  Kernel kernel;  // governor stays default-disabled
  ASSERT_TRUE(kernel.LoadGuardrails(kGovSpec).ok());
  SimTime t = Milliseconds(1);
  for (int i = 0; i < 40; ++i) {
    kernel.Run(t);
    kernel.Callout("hot_path");
    t += Microseconds(100);
  }
  EXPECT_EQ(kernel.engine().governor().mode(), GovernorMode::kFull);
  EXPECT_EQ(kernel.engine().governor().stats().callouts, 0u);
  for (size_t id = 0; id < kernel.store().key_count(); ++id) {
    EXPECT_EQ(kernel.store().KeyName(static_cast<KeyId>(id)).rfind("engine.governor.", 0),
              std::string::npos);
  }
}

// The E12 storm through both arms. Every signal is simulated-time derived,
// so these ladder gates are exact: the governed arm reaches fail-static,
// pins the critical monitor's default instead of shedding it, sheds work,
// and walks back to full service in the calm tail.
TEST_F(GovernorTest, E12StormReachesFailStaticAndEndsAtFullService) {
  const std::vector<StormEvent> storm = GovernorStorm();
  uint64_t evaluations[2] = {0, 0};
  for (const bool governed : {false, true}) {
    Kernel kernel(GovernorStormOptions(governed));
    ASSERT_TRUE(kernel.LoadGuardrails(kGovernorStormSpec).ok());
    GovernorMode deepest = GovernorMode::kFull;
    for (const StormEvent& event : storm) {
      StageStormEvent(kernel, event);
      kernel.Callout("hot_path");
      deepest = std::max(deepest, kernel.engine().governor().mode());
    }
    evaluations[governed ? 1 : 0] = kernel.engine().stats().evaluations;
    if (governed) {
      const OverloadGovernor& governor = kernel.engine().governor();
      EXPECT_EQ(deepest, GovernorMode::kFailStatic);
      EXPECT_EQ(governor.mode(), GovernorMode::kFull);
      EXPECT_EQ(governor.stats().critical_sheds, 0u);
      EXPECT_GT(governor.stats().static_applies, 0u);
    } else {
      EXPECT_EQ(deepest, GovernorMode::kFull);  // the ungoverned ladder never moves
    }
  }
  EXPECT_LT(evaluations[1], evaluations[0]);
}

}  // namespace
}  // namespace osguard
