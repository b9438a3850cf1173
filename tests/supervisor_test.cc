// Supervisor tests: runtime budgets, circuit-breaker quarantine, staged
// deployment with auto-rollback, and the supervisor's chaos-determinism
// contract.
//
// Contract properties:
//   1. Budgets — a rule that exceeds its `budget_steps` is aborted mid-eval
//      and classified as a budget failure (never a violation).
//   2. Breaker — failure events walk closed -> open -> half-open -> closed
//      deterministically; an open breaker skips evals and applies the
//      corrective action once as the quarantine default.
//   3. Probation — a replace-by-name deploy that quarantines or regresses is
//      rolled back atomically to the bit-identical pre-deploy program; a
//      clean deploy commits. Rollback reports follow evaluation order, not
//      name order.
//   4. Off == absent — a guardrail whose health block never trips behaves
//      exactly like the same guardrail without one (differential baseline).
//   5. Seed replay — supervisor decisions under chaos are a pure function of
//      the seed (1000-seed sweep, like tests/chaos_test.cc; the
//      OSGUARD_CHAOS_SEED env var offsets the seed base so CI matrix jobs
//      sweep disjoint ranges).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/actions/dispatcher.h"
#include "src/chaos/chaos.h"
#include "src/dsl/parser.h"
#include "src/dsl/sema.h"
#include "src/runtime/engine.h"
#include "src/sim/kernel.h"
#include "src/supervisor/supervisor.h"
#include "src/support/logging.h"

namespace osguard {
namespace {

uint64_t SeedBase() {
  const char* env = std::getenv("OSGUARD_CHAOS_SEED");
  return env != nullptr ? static_cast<uint64_t>(std::strtoull(env, nullptr, 10)) : 0;
}

uint64_t HashMix(uint64_t h, uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

class SupervisorTest : public ::testing::Test {
 protected:
  SupervisorTest() : engine_(&store_, &registry_, &task_control_) {
    Logger::Global().set_level(LogLevel::kOff);
  }

  void Load(const std::string& source) {
    Status status = engine_.LoadSource(source);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  MonitorStats Stats(const std::string& name) {
    auto stats = engine_.StatsFor(name);
    EXPECT_TRUE(stats.ok()) << stats.status().ToString();
    return stats.value_or(MonitorStats{});
  }

  FeatureStore store_;
  PolicyRegistry registry_;
  RecordingTaskControl task_control_;
  Engine engine_;
};

// --- health { } sema ---

TEST(SupervisorDslTest, HealthBlockParsesAndAnalyzes) {
  auto spec = ParseSpecSource(R"(
    guardrail h {
      trigger: { TIMER(1s, 1s) },
      rule: { true },
      action: { REPORT() },
      health: {
        budget_steps = 500,
        flap_window = 30s,
        flap_threshold = 4,
        quarantine = 2,
        probe_every = 5,
        reinstate = 3,
        probation = 60s,
        ewma_alpha = 0.5
      }
    }
  )");
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  auto analyzed = Analyze(std::move(spec).value());
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().message();
  const GuardrailHealth& health = analyzed.value().guardrails[0].meta.health;
  EXPECT_TRUE(health.supervised);
  EXPECT_EQ(health.budget_steps, 500);
  EXPECT_EQ(health.flap_window, Seconds(30));
  EXPECT_EQ(health.flap_threshold, 4);
  EXPECT_EQ(health.quarantine, 2);
  EXPECT_EQ(health.probe_every, 5);
  EXPECT_EQ(health.reinstate, 3);
  EXPECT_EQ(health.probation, Seconds(60));
  EXPECT_EQ(health.ewma_alpha, 0.5);

  // An empty block supervises with defaults; no block means unsupervised.
  auto defaults = Analyze(
      ParseSpecSource("guardrail d { trigger: { TIMER(1s, 1s) }, rule: { true }, "
                      "action: { REPORT() }, health: { } }")
          .value());
  ASSERT_TRUE(defaults.ok()) << defaults.status().message();
  EXPECT_TRUE(defaults.value().guardrails[0].meta.health.supervised);
  auto absent = Analyze(
      ParseSpecSource("guardrail a { trigger: { TIMER(1s, 1s) }, rule: { true }, "
                      "action: { REPORT() } }")
          .value());
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(absent.value().guardrails[0].meta.health.supervised);
}

TEST(SupervisorDslTest, BadHealthBlocksFailCleanly) {
  const char* bad[] = {
      "health: { budget_steps = -1 }",  "health: { flap_window = 0 }",
      "health: { flap_threshold = 0 }", "health: { quarantine = 0 }",
      "health: { probe_every = 0 }",    "health: { reinstate = 0 }",
      "health: { probation = -1s }",    "health: { ewma_alpha = 1.5 }",
      "health: { ewma_alpha = 0 }",     "health: { teapot = 4 }",
  };
  for (const char* block : bad) {
    const std::string source = std::string("guardrail b { trigger: { TIMER(1s, 1s) }, "
                                           "rule: { true }, action: { REPORT() }, ") +
                               block + " }";
    auto spec = ParseSpecSource(source);
    if (!spec.ok()) {
      continue;  // rejected at parse (e.g. negative literals): fine, it's clean
    }
    auto analyzed = Analyze(std::move(spec).value());
    EXPECT_FALSE(analyzed.ok()) << source;
    EXPECT_FALSE(analyzed.status().message().empty()) << source;
  }
}

// --- Property 1: runtime budgets ---

TEST_F(SupervisorTest, BudgetStepsAbortsRunawayRule) {
  // budget_steps = 1: any real rule exceeds it on its very first eval.
  // quarantine is high so this test isolates the kill switch from the breaker.
  Load(R"(
    guardrail runaway {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(x, 0) <= 100 },
      action: { SAVE(tripped, true) },
      health: { budget_steps = 1, quarantine = 1000 }
    }
  )");
  engine_.AdvanceTo(Seconds(3));
  const MonitorStats stats = Stats("runaway");
  EXPECT_EQ(stats.evaluations, 3u);
  EXPECT_EQ(stats.errors, 3u);  // budget aborts are contained monitor errors
  EXPECT_EQ(stats.violations, 0u);
  EXPECT_FALSE(store_.Contains("tripped"));
  EXPECT_EQ(engine_.supervisor().stats().budget_aborts, 3u);
  EXPECT_EQ(engine_.vm().stats().budget_aborts, 3);
  const GuardHealth* guard = engine_.supervisor().Find("runaway");
  ASSERT_NE(guard, nullptr);
  EXPECT_EQ(guard->budget_aborts, 3u);
  EXPECT_GT(guard->fail_ewma, 0.0);
  // The abort is visible through the store-exported health score.
  EXPECT_LT(store_.LoadOr("supervisor.runaway.health", Value(1.0)).NumericOr(1.0), 1.0);
}

TEST_F(SupervisorTest, GenerousBudgetNeverFires) {
  Load(R"(
    guardrail roomy {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(x, 0) <= 100 },
      action: { REPORT() },
      health: { budget_steps = 100000 }
    }
  )");
  engine_.AdvanceTo(Seconds(5));
  EXPECT_EQ(Stats("roomy").errors, 0u);
  EXPECT_EQ(engine_.supervisor().stats().budget_aborts, 0u);
}

// --- Property 2: the breaker cycle, deterministic from one chaos schedule ---

constexpr char kBreakerSpec[] = R"(
  guardrail breaker-demo {
    trigger: { TIMER(1s, 1s) },
    rule: { LOAD_OR(x, 0) <= 100 },
    action: { REPORT("corrective") },
    health: { quarantine = 3, probe_every = 4, reinstate = 2 }
  }
  chaos { site vm.budget_exhaust { mode = schedule, nth = {0, 1, 2} } }
)";

TEST_F(SupervisorTest, BreakerWalksFullCycleDeterministically) {
  ChaosEngine chaos(7);
  engine_.SetChaos(&chaos);
  Load(kBreakerSpec);
  const GuardHealth* guard = engine_.supervisor().Find("breaker-demo");
  ASSERT_NE(guard, nullptr);

  // t=1..3: injected budget aborts -> streak hits quarantine=3 -> open.
  engine_.AdvanceTo(Seconds(3));
  EXPECT_EQ(guard->state, BreakerState::kOpen);
  EXPECT_EQ(guard->quarantines, 1u);
  EXPECT_EQ(guard->budget_aborts, 3u);

  // The corrective action ran exactly once as the quarantine default.
  EXPECT_EQ(engine_.reporter().CountOfKind(ReportKind::kActionPayload), 1u);
  bool saw_quarantine_report = false;
  for (const ReportRecord& record : engine_.reporter().RecordsFor("breaker-demo")) {
    if (record.message.find("quarantined by supervisor") != std::string::npos) {
      saw_quarantine_report = true;
    }
  }
  EXPECT_TRUE(saw_quarantine_report);

  // t=4..6 skipped; t=7 is the 4th suppressed trigger -> half-open probe.
  // The schedule is exhausted, so the probe is clean; one more at t=11
  // reaches reinstate=2 and closes the breaker.
  engine_.AdvanceTo(Seconds(6));
  EXPECT_EQ(guard->state, BreakerState::kOpen);
  EXPECT_EQ(guard->skipped, 3u);
  engine_.AdvanceTo(Seconds(7));
  EXPECT_EQ(guard->probes, 1u);
  EXPECT_EQ(guard->state, BreakerState::kOpen);  // 1 clean probe < reinstate
  engine_.AdvanceTo(Seconds(11));
  EXPECT_EQ(guard->probes, 2u);
  EXPECT_EQ(guard->state, BreakerState::kClosed);
  EXPECT_EQ(guard->reinstatements, 1u);

  // Reinstated: evals resume and the skip counter stops moving.
  const uint64_t skipped_at_reinstate = guard->skipped;
  engine_.AdvanceTo(Seconds(14));
  EXPECT_EQ(guard->skipped, skipped_at_reinstate);
  EXPECT_EQ(Stats("breaker-demo").evaluations, 3u + 2u + 3u);

  // Exported state tracked the transitions.
  EXPECT_EQ(store_.LoadOr("supervisor.breaker-demo.state", Value(-1)).AsInt().value(),
            static_cast<int64_t>(BreakerState::kClosed));
  EXPECT_EQ(store_.LoadOr("supervisor.quarantines", Value(0)).AsInt().value(), 1);
  EXPECT_EQ(store_.LoadOr("supervisor.reinstatements", Value(0)).AsInt().value(), 1);
}

TEST_F(SupervisorTest, ChaosProbeFailureKeepsBreakerOpen) {
  ChaosEngine chaos(7);
  engine_.SetChaos(&chaos);
  Load(R"(
    guardrail stuck {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(x, 0) <= 100 },
      action: { REPORT() },
      health: { quarantine = 2, probe_every = 2, reinstate = 1 }
    }
    chaos {
      site vm.budget_exhaust { mode = schedule, nth = {0, 1} },
      site supervisor.probe_fail { mode = schedule, nth = {0, 1, 2} }
    }
  )");
  const GuardHealth* guard = engine_.supervisor().Find("stuck");
  ASSERT_NE(guard, nullptr);
  // Two injected aborts quarantine; the first three probes are failed by
  // chaos, so the breaker never closes in this window.
  engine_.AdvanceTo(Seconds(8));
  EXPECT_EQ(guard->quarantines, 1u);
  EXPECT_GE(guard->probes, 3u);
  EXPECT_EQ(guard->probe_failures, 3u);
  EXPECT_EQ(guard->state, BreakerState::kOpen);
  EXPECT_EQ(guard->reinstatements, 0u);
}

// A vm.budget_exhaust storm in burst mode: 2 s bursts every 25 s (8% duty)
// over 120 s force every eval inside a burst into a budget abort. The
// breaker quarantines during bursts, probes its way back between them, and
// is closed at the end. (BreakerWalksFullCycleDeterministically drives one
// scheduled cycle; this is the repeated, burst-shaped one.)
TEST_F(SupervisorTest, BreakerRidesOutABudgetExhaustBurstStorm) {
  ChaosEngine chaos(1729);
  engine_.SetChaos(&chaos);
  Load(R"(
    guardrail storm-watch {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(x, 0) <= 100 },
      action: { REPORT("storm-watch") },
      health: { quarantine = 1, probe_every = 4, reinstate = 1 }
    }
    chaos { site vm.budget_exhaust { mode = burst, period = 25s, burst = 2s } }
  )");
  engine_.AdvanceTo(Seconds(120));
  const SupervisorStats& stats = engine_.supervisor().stats();
  EXPECT_GE(stats.quarantines, 1u);
  EXPECT_GE(stats.reinstatements, 1u);
  const GuardHealth* guard = engine_.supervisor().Find("storm-watch");
  ASSERT_NE(guard, nullptr);
  EXPECT_EQ(guard->state, BreakerState::kClosed);
}

// --- Flap detector ---

TEST_F(SupervisorTest, TripFlappingOpensTheBreaker) {
  // The guardrail's own programs oscillate the watched value, so the rule
  // flips violated <-> satisfied every tick; hysteresis = 1 so each flip is a
  // protocol edge. flap_threshold = 4 within a 60s window, and quarantine = 1:
  // the first flap overflow quarantines the guardrail.
  Load(R"(
    guardrail flappy {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(x, 0) >= 1 },
      action: { SAVE(x, 1) },
      on_satisfy: { SAVE(x, 0) },
      health: { flap_window = 60s, flap_threshold = 4, quarantine = 1 }
    }
  )");
  engine_.AdvanceTo(Seconds(20));
  const GuardHealth* guard = engine_.supervisor().Find("flappy");
  ASSERT_NE(guard, nullptr);
  EXPECT_GE(guard->flap_events, 1u);
  EXPECT_EQ(guard->state, BreakerState::kOpen);
  EXPECT_EQ(engine_.supervisor().stats().quarantines, 1u);
}

// The E2 oscillating pair, undamped (no cooldown, hysteresis 1): a bigger
// page cache lowers I/O latency but raises memory pressure, and the two
// guardrails fight around the crossover. Over 120 s the flap detector must
// quarantine and at least halve the trip rate against the bare pair, with
// no retuning of either guardrail.
TEST_F(SupervisorTest, FlapQuarantineHalvesTheOscillationTripRate) {
  const Duration total = Seconds(120);
  double trips[2] = {0.0, 0.0};
  uint64_t quarantines = 0;
  for (const bool supervised : {false, true}) {
    FeatureStore store;
    PolicyRegistry registry;
    Engine engine(&store, &registry);
    const std::string health =
        supervised ? ",\n  health: { flap_window = 60s, flap_threshold = 4, "
                     "quarantine = 1, probe_every = 10, reinstate = 4 }\n"
                   : "\n";
    ASSERT_TRUE(engine
                    .LoadSource("guardrail shrink-on-pressure {\n"
                                "  trigger: { TIMER(1s, 1s) },\n"
                                "  rule: { LOAD_OR(mem_pressure, 0) <= 0.55 },\n"
                                "  action: { SAVE(cache_gb, LOAD_OR(cache_gb, 4) - 2); "
                                "INCR(trips) }" +
                                health +
                                "}\n"
                                "guardrail grow-on-latency {\n"
                                "  trigger: { TIMER(1s, 1s) },\n"
                                "  rule: { LOAD_OR(io_latency_ms, 0) <= 1.8 },\n"
                                "  action: { SAVE(cache_gb, LOAD_OR(cache_gb, 4) + 2); "
                                "INCR(trips) }" +
                                health + "}\n")
                    .ok());
    for (SimTime t = 0; t <= total; t += Milliseconds(500)) {
      const double cache = store.LoadOr("cache_gb", Value(4.0)).NumericOr(4.0);
      store.Save("mem_pressure", Value(0.10 * cache));
      store.Save("io_latency_ms", Value(12.0 / (cache + 1.0)));
      engine.AdvanceTo(t);
    }
    trips[supervised ? 1 : 0] = store.LoadOr("trips", Value(0)).NumericOr(0);
    if (supervised) {
      quarantines = engine.supervisor().stats().quarantines;
    }
  }
  EXPECT_GE(quarantines, 1u);
  EXPECT_GT(trips[0], 0.0);
  EXPECT_LE(trips[1], 0.5 * trips[0]) << "bare " << trips[0] << ", supervised " << trips[1];
}

// --- Property 3: probation deploys ---

constexpr char kStableV1[] = R"(
  guardrail deploy {
    trigger: { TIMER(1s, 1s) },
    rule: { LOAD_OR(x, 0) <= 100 },
    action: { REPORT("v1") },
    health: { quarantine = 3 }
  }
)";

TEST_F(SupervisorTest, QuarantineInProbationRollsBackToOldProgram) {
  Load(kStableV1);
  engine_.AdvanceTo(Seconds(3));
  const std::string v1_rule = engine_.FindGuardrail("deploy")->rule.Disassemble();

  // v2: every eval blows its 1-step budget; quarantine = 2 trips inside the
  // probation window.
  Load(R"(
    guardrail deploy {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(x, 0) <= 99 },
      action: { REPORT("v2") },
      health: { budget_steps = 1, quarantine = 2, probation = 60s }
    }
  )");
  const GuardHealth* staged = engine_.supervisor().Find("deploy");
  ASSERT_NE(staged, nullptr);
  EXPECT_TRUE(staged->in_probation);

  engine_.AdvanceTo(Seconds(10));
  EXPECT_EQ(engine_.supervisor().stats().rollbacks, 1u);
  // The restored program is bit-identical to the pre-deploy version and back
  // in service: evaluations resume with no further errors.
  ASSERT_NE(engine_.FindGuardrail("deploy"), nullptr);
  EXPECT_EQ(engine_.FindGuardrail("deploy")->rule.Disassemble(), v1_rule);
  const GuardHealth* restored = engine_.supervisor().Find("deploy");
  ASSERT_NE(restored, nullptr);
  EXPECT_FALSE(restored->in_probation);  // restored versions are trusted
  EXPECT_EQ(restored->state, BreakerState::kClosed);
  const uint64_t evals_after_rollback = Stats("deploy").evaluations;
  engine_.AdvanceTo(Seconds(15));
  EXPECT_EQ(Stats("deploy").evaluations, evals_after_rollback + 5u);
  EXPECT_EQ(engine_.supervisor().stats().budget_aborts, 2u);  // v2 only

  bool saw_rollback_report = false;
  for (const ReportRecord& record : engine_.reporter().RecordsFor("deploy")) {
    if (record.message.find("rolled back by supervisor") != std::string::npos) {
      saw_rollback_report = true;
    }
  }
  EXPECT_TRUE(saw_rollback_report);
}

TEST_F(SupervisorTest, RegressionAtProbationEndRollsBack) {
  Load(kStableV1);
  engine_.AdvanceTo(Seconds(3));
  const std::string v1_rule = engine_.FindGuardrail("deploy")->rule.Disassemble();

  // v2 faults on every eval (LOAD of a missing key is nil; nil <= 10 errors)
  // but quarantine is too high to trip: only the end-of-window regression
  // check against the v1 baseline can catch it.
  Load(R"(
    guardrail deploy {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD(never_set) <= 10 },
      action: { REPORT("v2") },
      health: { quarantine = 1000, probation = 5s }
    }
  )");
  engine_.AdvanceTo(Seconds(12));
  EXPECT_EQ(engine_.supervisor().stats().rollbacks, 1u);
  EXPECT_EQ(engine_.supervisor().stats().commits, 0u);
  EXPECT_EQ(engine_.FindGuardrail("deploy")->rule.Disassemble(), v1_rule);
}

TEST_F(SupervisorTest, CleanProbationCommits) {
  Load(kStableV1);
  engine_.AdvanceTo(Seconds(3));

  Load(R"(
    guardrail deploy {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(x, 0) <= 99 },
      action: { REPORT("v2") },
      health: { quarantine = 3, probation = 5s }
    }
  )");
  const std::string v2_rule = engine_.FindGuardrail("deploy")->rule.Disassemble();
  engine_.AdvanceTo(Seconds(12));
  EXPECT_EQ(engine_.supervisor().stats().rollbacks, 0u);
  EXPECT_EQ(engine_.supervisor().stats().commits, 1u);
  const GuardHealth* guard = engine_.supervisor().Find("deploy");
  ASSERT_NE(guard, nullptr);
  EXPECT_FALSE(guard->in_probation);
  EXPECT_EQ(engine_.FindGuardrail("deploy")->rule.Disassemble(), v2_rule);
}

// --- Rollback report order (pinned by src/actions/report.h) ---

// Replace/rollback records are emitted in rollback-queue insertion order,
// which is evaluation order — NOT name order. On the timer path, deadline
// order decides: zz_early (deadline 1s) regresses before aa_late (deadline
// 2s), so zz_early's rollback report must precede aa_late's even though
// "aa_late" sorts first.
TEST(RollbackReportOrderTest, RollbackReportOrder) {
  Logger::Global().set_level(LogLevel::kOff);
  auto v1 = [](const std::string& name, const std::string& timer) {
    return "guardrail " + name + " { trigger: { TIMER(" + timer + ", 10s) }, " +
           "rule: { LOAD_OR(x, 0) <= 100 }, action: { REPORT(\"v1\") }, " +
           "health: { quarantine = 5 } }";
  };
  auto v2 = [](const std::string& name, const std::string& timer) {
    // Every eval blows the 1-step budget; quarantine = 1 trips at the first
    // tick inside probation and queues a rollback.
    return "guardrail " + name + " { trigger: { TIMER(" + timer + ", 10s) }, " +
           "rule: { LOAD_OR(x, 0) <= 99 }, action: { REPORT(\"v2\") }, " +
           "health: { budget_steps = 1, quarantine = 1, probation = 60s } }";
  };
  Kernel kernel;
  ASSERT_TRUE(kernel.LoadGuardrails(v1("zz_early", "1s") + "\n" + v1("aa_late", "2s")).ok());
  ASSERT_TRUE(kernel.LoadGuardrails(v2("zz_early", "1s") + "\n" + v2("aa_late", "2s")).ok());
  kernel.Run(Seconds(3));

  EXPECT_EQ(kernel.engine().supervisor().stats().rollbacks, 2u);
  std::vector<const ReportRecord*> rollbacks;
  const std::vector<ReportRecord> records = kernel.engine().reporter().Records();
  for (const ReportRecord& record : records) {
    if (record.message.find("rolled back") != std::string::npos) {
      rollbacks.push_back(&record);
    }
  }
  ASSERT_EQ(rollbacks.size(), 2u);
  EXPECT_EQ(rollbacks[0]->guardrail, "zz_early");  // evaluation order, not name order
  EXPECT_EQ(rollbacks[1]->guardrail, "aa_late");
  EXPECT_LT(rollbacks[0]->sequence, rollbacks[1]->sequence);
  // The stream is totally ordered by `sequence`.
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_LT(records[i - 1].sequence, records[i].sequence);
  }
}

// Two probation monitors regressing inside the same FUNCTION callout: both
// rollbacks are queued during the callout and applied at its boundary.
TEST(RollbackReportOrderTest, TwoRollbacksInOneCallout) {
  Logger::Global().set_level(LogLevel::kOff);
  auto spec = [](const std::string& health) {
    std::string out;
    for (const char* name : {"one", "two"}) {
      out += "guardrail " + std::string(name) + " { trigger: { FUNCTION(fn) }, " +
             "rule: { LOAD_OR(x, 0) <= 50 }, action: { REPORT() }, " +
             "health: { " + health + " } }\n";
    }
    return out;
  };
  Kernel kernel;
  ASSERT_TRUE(kernel.LoadGuardrails(spec("quarantine = 5")).ok());
  kernel.Run(Milliseconds(1));
  kernel.Callout("fn");
  ASSERT_TRUE(
      kernel.LoadGuardrails(spec("budget_steps = 1, quarantine = 1, probation = 60s")).ok());
  kernel.Run(Milliseconds(2));
  kernel.Callout("fn");  // both blow the budget, quarantine, and roll back
  kernel.Run(Milliseconds(3));
  kernel.Callout("fn");  // restored v1 evaluates normally again
  EXPECT_EQ(kernel.engine().supervisor().stats().rollbacks, 2u);
}

// --- Replace-by-name carry-over (explicit policy; see docs/DSL.md) ---

TEST_F(SupervisorTest, CooldownSurvivesReplace) {
  Load(R"(
    guardrail cool {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(x, 0) <= 10 },
      action: { REPORT() },
      meta: { cooldown = 30s }
    }
  )");
  store_.Save("x", Value(50));
  engine_.AdvanceTo(Seconds(1));
  EXPECT_EQ(Stats("cool").action_firings, 1u);

  // Hot replace while the cooldown is running: the clock persists, so the
  // new version cannot re-fire inside the old version's cooldown.
  Load(R"(
    guardrail cool {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(x, 0) <= 11 },
      action: { REPORT() },
      meta: { cooldown = 30s }
    }
  )");
  engine_.AdvanceTo(Seconds(10));
  const MonitorStats stats = Stats("cool");
  EXPECT_EQ(stats.action_firings, 0u);  // counters reset with the new version
  EXPECT_GE(stats.suppressed_cooldown, 8u);
  EXPECT_EQ(stats.last_action_time, Seconds(1));
}

TEST_F(SupervisorTest, SatisfiedEdgeSurvivesReplace) {
  Load(kStableV1);
  store_.Save("x", Value(500));
  engine_.AdvanceTo(Seconds(1));
  EXPECT_TRUE(Stats("deploy").in_violation);

  Load(kStableV1);  // replace with an identical version mid-violation
  EXPECT_TRUE(Stats("deploy").in_violation);
  store_.Save("x", Value(0));
  engine_.AdvanceTo(Seconds(2));
  // The new version inherited the violation and emits the satisfied edge.
  EXPECT_EQ(Stats("deploy").satisfy_firings, 1u);
  EXPECT_FALSE(Stats("deploy").in_violation);
}

// --- Property 4: off == absent differential baseline ---

// A workload with violations, recoveries, and actions; `health_block` is
// spliced in supervised runs.
std::string DifferentialSpec(const std::string& health_block) {
  return R"(
    guardrail diff {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(load, 0) <= 10 },
      action: { INCR(trips) },
      on_satisfy: { INCR(recoveries) },
      meta: { hysteresis = 2, cooldown = 3s }
    )" +
         health_block + "}";
}

struct DifferentialTrace {
  MonitorStats monitor;
  uint64_t timer_firings = 0;
  uint64_t evaluations = 0;
  uint64_t violations = 0;
  uint64_t action_firings = 0;
  uint64_t errors = 0;
  double trips = 0;
  double recoveries = 0;
  std::vector<std::pair<int, std::string>> reports;  // (kind, message)
};

DifferentialTrace RunDifferential(const std::string& health_block) {
  FeatureStore store;
  PolicyRegistry registry;
  RecordingTaskControl task_control;
  Engine engine(&store, &registry, &task_control);
  EXPECT_TRUE(engine.LoadSource(DifferentialSpec(health_block)).ok());
  for (int t = 1; t <= 40; ++t) {
    // Deterministic sawtooth: above threshold in bursts, recovering between.
    store.Save("load", Value((t / 5) % 2 == 0 ? 0 : 50));
    engine.AdvanceTo(Seconds(t));
  }
  DifferentialTrace trace;
  trace.monitor = engine.StatsFor("diff").value_or(MonitorStats{});
  trace.timer_firings = engine.stats().timer_firings;
  trace.evaluations = engine.stats().evaluations;
  trace.violations = engine.stats().violations;
  trace.action_firings = engine.stats().action_firings;
  trace.errors = engine.stats().errors;
  trace.trips = store.LoadOr("trips", Value(0)).NumericOr(0);
  trace.recoveries = store.LoadOr("recoveries", Value(0)).NumericOr(0);
  for (const ReportRecord& record : engine.reporter().Records()) {
    trace.reports.emplace_back(static_cast<int>(record.kind), record.message);
  }
  return trace;
}

TEST(SupervisorDifferentialTest, UntrippedHealthBlockMatchesAbsentBaseline) {
  const DifferentialTrace baseline = RunDifferential("");
  // Generous limits: supervised, but nothing ever trips.
  const DifferentialTrace supervised = RunDifferential(
      ", health: { budget_steps = 1000000, quarantine = 1000000, "
      "flap_threshold = 1000000 }");

  EXPECT_EQ(supervised.monitor.evaluations, baseline.monitor.evaluations);
  EXPECT_EQ(supervised.monitor.violations, baseline.monitor.violations);
  EXPECT_EQ(supervised.monitor.action_firings, baseline.monitor.action_firings);
  EXPECT_EQ(supervised.monitor.satisfy_firings, baseline.monitor.satisfy_firings);
  EXPECT_EQ(supervised.monitor.errors, baseline.monitor.errors);
  EXPECT_EQ(supervised.monitor.suppressed_hysteresis,
            baseline.monitor.suppressed_hysteresis);
  EXPECT_EQ(supervised.monitor.suppressed_cooldown, baseline.monitor.suppressed_cooldown);
  EXPECT_EQ(supervised.monitor.in_violation, baseline.monitor.in_violation);
  EXPECT_EQ(supervised.monitor.consecutive_violations,
            baseline.monitor.consecutive_violations);
  EXPECT_EQ(supervised.monitor.last_action_time, baseline.monitor.last_action_time);
  EXPECT_EQ(supervised.timer_firings, baseline.timer_firings);
  EXPECT_EQ(supervised.evaluations, baseline.evaluations);
  EXPECT_EQ(supervised.violations, baseline.violations);
  EXPECT_EQ(supervised.action_firings, baseline.action_firings);
  EXPECT_EQ(supervised.errors, baseline.errors);
  EXPECT_EQ(supervised.trips, baseline.trips);
  EXPECT_EQ(supervised.recoveries, baseline.recoveries);
  EXPECT_EQ(supervised.reports, baseline.reports);

  // Sanity: a health block that *does* trip diverges — the differential can
  // actually detect supervision.
  const DifferentialTrace tripped =
      RunDifferential(", health: { budget_steps = 1, quarantine = 1 }");
  EXPECT_NE(tripped.monitor.errors, baseline.monitor.errors);
}

// --- Property 5: 1000-seed bit-identical replay under chaos ---

constexpr char kReplaySpec[] = R"(
  guardrail storm {
    trigger: { TIMER(1s, 1s) },
    rule: { LOAD_OR(x, 0) <= 100 },
    action: { REPORT("storm") },
    health: { quarantine = 2, probe_every = 3, reinstate = 2, ewma_alpha = 0.25 }
  }
  chaos {
    site vm.budget_exhaust { mode = bernoulli, p = 0.3 },
    site supervisor.probe_fail { mode = bernoulli, p = 0.5 }
  }
)";

uint64_t SupervisorTraceFingerprint(uint64_t seed) {
  FeatureStore store;
  PolicyRegistry registry;
  RecordingTaskControl task_control;
  Engine engine(&store, &registry, &task_control);
  ChaosEngine chaos(seed);
  engine.SetChaos(&chaos);
  EXPECT_TRUE(engine.LoadSource(kReplaySpec).ok());
  uint64_t h = 0xcbf29ce484222325ull;
  for (int t = 1; t <= 60; ++t) {
    engine.AdvanceTo(Seconds(t));
    const GuardHealth* guard = engine.supervisor().Find("storm");
    if (guard == nullptr) {
      continue;
    }
    h = HashMix(h, static_cast<uint64_t>(guard->state));
    h = HashMix(h, guard->evals);
    h = HashMix(h, guard->budget_aborts);
    h = HashMix(h, guard->skipped);
    h = HashMix(h, guard->probes);
    h = HashMix(h, guard->probe_failures);
    h = HashMix(h, guard->quarantines);
    h = HashMix(h, guard->reinstatements);
    uint64_t ewma_bits = 0;
    std::memcpy(&ewma_bits, &guard->fail_ewma, sizeof(ewma_bits));
    h = HashMix(h, ewma_bits);
  }
  const SupervisorStats& stats = engine.supervisor().stats();
  h = HashMix(h, stats.quarantines);
  h = HashMix(h, stats.probes);
  h = HashMix(h, stats.probe_failures);
  h = HashMix(h, stats.reinstatements);
  h = HashMix(h, stats.skipped_evals);
  h = HashMix(h, stats.budget_aborts);
  h = HashMix(h, engine.reporter().total_reports());
  return h;
}

TEST(SupervisorReplayTest, ThousandSeedsReplayBitIdentically) {
  const uint64_t base = SeedBase();
  std::set<uint64_t> distinct;
  for (uint64_t i = 0; i < 1000; ++i) {
    const uint64_t seed = base + i;
    const uint64_t first = SupervisorTraceFingerprint(seed);
    const uint64_t second = SupervisorTraceFingerprint(seed);
    ASSERT_EQ(first, second) << "seed " << seed << " did not replay";
    distinct.insert(first);
  }
  // Different seeds exercise genuinely different breaker trajectories.
  EXPECT_GT(distinct.size(), 500u);
}

}  // namespace
}  // namespace osguard
