// Engine tests: trigger firing, violation protocol (hysteresis, cooldown,
// on_satisfy), runtime load/replace/unload, crash-free error handling, and
// the per-monitor protocol as a whole (one outcome per trigger firing, one
// evaluation's reports in order).

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/chaos/chaos.h"
#include "src/persist/persist.h"
#include "src/runtime/engine.h"
#include "src/sim/kernel.h"
#include "src/support/logging.h"
#include "src/vm/compiler.h"
#include "tests/governor_storm.h"

namespace osguard {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : engine_(&store_, &registry_, &task_control_) {}

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

constexpr char kSimpleGuardrail[] = R"(
  guardrail simple {
    trigger: { TIMER(1s, 1s) },
    rule: { LOAD_OR(x, 0) <= 10 },
    action: { SAVE(tripped, true) }
  }
)";

TEST_F(EngineTest, TimerFiresAtConfiguredInterval) {
  Load(kSimpleGuardrail);
  engine_.AdvanceTo(Milliseconds(999));
  EXPECT_EQ(Stats("simple").evaluations, 0u);
  engine_.AdvanceTo(Seconds(1));
  EXPECT_EQ(Stats("simple").evaluations, 1u);
  engine_.AdvanceTo(Seconds(5));
  EXPECT_EQ(Stats("simple").evaluations, 5u);
}

TEST_F(EngineTest, TimerStopTimeEndsChecks) {
  Load(R"(
    guardrail bounded {
      trigger: { TIMER(1s, 1s, 3s) },
      rule: { true },
      action: { REPORT() }
    }
  )");
  engine_.AdvanceTo(Seconds(10));
  EXPECT_EQ(Stats("bounded").evaluations, 3u);  // t = 1, 2, 3
}

TEST_F(EngineTest, NextTimerDeadlineIsExposed) {
  Load(kSimpleGuardrail);
  ASSERT_TRUE(engine_.NextTimerDeadline().has_value());
  EXPECT_EQ(*engine_.NextTimerDeadline(), Seconds(1));
  engine_.AdvanceTo(Seconds(1));
  EXPECT_EQ(*engine_.NextTimerDeadline(), Seconds(2));
}

constexpr char kEarlyAndLate[] = R"(
  guardrail early {
    trigger: { TIMER(1s, 1s) },
    rule: { true },
    action: { REPORT() }
  }
  guardrail late {
    trigger: { TIMER(5s, 5s) },
    rule: { true },
    action: { REPORT() }
  }
)";

TEST_F(EngineTest, NextTimerDeadlineSkipsAnUnloadedMonitor) {
  Load(kEarlyAndLate);
  EXPECT_EQ(engine_.NextTimerDeadline(), std::optional<SimTime>(Seconds(1)));
  // The earliest entry now belongs to no monitor: the next live deadline
  // comes back, and once nothing is armed there is none.
  ASSERT_TRUE(engine_.Unload("early").ok());
  EXPECT_EQ(engine_.NextTimerDeadline(), std::optional<SimTime>(Seconds(5)));
  EXPECT_EQ(engine_.NextTimerDeadline(), std::optional<SimTime>(Seconds(5)));
  ASSERT_TRUE(engine_.Unload("late").ok());
  EXPECT_EQ(engine_.NextTimerDeadline(), std::nullopt);
  engine_.AdvanceTo(Seconds(10));
  EXPECT_EQ(engine_.stats().timer_firings, 0u);
}

TEST_F(EngineTest, NextTimerDeadlineSkipsAHotReplacedMonitor) {
  Load(kEarlyAndLate);
  EXPECT_EQ(engine_.NextTimerDeadline(), std::optional<SimTime>(Seconds(1)));
  // The replacement re-arms at 3s; the outgoing version's 1s entry is stale.
  Load(R"(
    guardrail early {
      trigger: { TIMER(3s, 3s) },
      rule: { true },
      action: { REPORT() }
    }
  )");
  EXPECT_EQ(engine_.NextTimerDeadline(), std::optional<SimTime>(Seconds(3)));
  engine_.AdvanceTo(Seconds(3));
  EXPECT_EQ(Stats("early").evaluations, 1u);  // at 3s only
  EXPECT_EQ(engine_.NextTimerDeadline(), std::optional<SimTime>(Seconds(5)));
  ASSERT_TRUE(engine_.Unload("early").ok());
  ASSERT_TRUE(engine_.Unload("late").ok());
  EXPECT_EQ(engine_.NextTimerDeadline(), std::nullopt);
}

TEST_F(EngineTest, ViolationRunsAction) {
  Load(kSimpleGuardrail);
  store_.Save("x", Value(50));
  engine_.AdvanceTo(Seconds(1));
  const MonitorStats stats = Stats("simple");
  EXPECT_EQ(stats.violations, 1u);
  EXPECT_EQ(stats.action_firings, 1u);
  EXPECT_TRUE(store_.LoadOr("tripped", Value(false)).AsBool().value());
}

TEST_F(EngineTest, SatisfiedRuleDoesNotAct) {
  Load(kSimpleGuardrail);
  store_.Save("x", Value(5));
  engine_.AdvanceTo(Seconds(3));
  const MonitorStats stats = Stats("simple");
  EXPECT_EQ(stats.violations, 0u);
  EXPECT_EQ(stats.action_firings, 0u);
  EXPECT_FALSE(store_.Contains("tripped"));
}

TEST_F(EngineTest, ViolationReportIsRecorded) {
  Load(kSimpleGuardrail);
  store_.Save("x", Value(50));
  engine_.AdvanceTo(Seconds(1));
  EXPECT_EQ(engine_.reporter().CountOfKind(ReportKind::kViolation), 1u);
  const auto records = engine_.reporter().RecordsFor("simple");
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records[0].time, Seconds(1));
}

TEST_F(EngineTest, HysteresisAbsorbsTransientViolations) {
  Load(R"(
    guardrail damped {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(x, 0) <= 10 },
      action: { SAVE(tripped, true) },
      meta: { hysteresis = 3 }
    }
  )");
  store_.Save("x", Value(50));
  engine_.AdvanceTo(Seconds(2));
  EXPECT_EQ(Stats("damped").action_firings, 0u);
  EXPECT_EQ(Stats("damped").suppressed_hysteresis, 2u);
  engine_.AdvanceTo(Seconds(3));  // third consecutive violation
  EXPECT_EQ(Stats("damped").action_firings, 1u);
}

TEST_F(EngineTest, HysteresisResetsOnSatisfaction) {
  Load(R"(
    guardrail damped {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(x, 0) <= 10 },
      action: { SAVE(tripped, true) },
      meta: { hysteresis = 2 }
    }
  )");
  store_.Save("x", Value(50));
  engine_.AdvanceTo(Seconds(1));  // violation #1
  store_.Save("x", Value(0));
  engine_.AdvanceTo(Seconds(2));  // satisfied: counter resets
  store_.Save("x", Value(50));
  engine_.AdvanceTo(Seconds(3));  // violation #1 again
  EXPECT_EQ(Stats("damped").action_firings, 0u);
  engine_.AdvanceTo(Seconds(4));  // violation #2 -> fire
  EXPECT_EQ(Stats("damped").action_firings, 1u);
}

TEST_F(EngineTest, CooldownRateLimitsActions) {
  Load(R"(
    guardrail cooled {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(x, 0) <= 10 },
      action: { INCR(fire_count) },
      meta: { cooldown = 3000000000 }
    }
  )");
  store_.Save("x", Value(50));
  engine_.AdvanceTo(Seconds(7));  // violations at t=1..7
  // Fires at t=1, 4, 7 (3s cooldown).
  EXPECT_EQ(store_.LoadOr("fire_count", Value(0)).NumericOr(0), 3.0);
  EXPECT_EQ(Stats("cooled").suppressed_cooldown, 4u);
}

TEST_F(EngineTest, OnSatisfyFiresOnRecoveryEdge) {
  Load(R"(
    guardrail recovering {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(x, 0) <= 10 },
      action: { SAVE(state, "bad") },
      on_satisfy: { SAVE(state, "good"); INCR(recoveries) }
    }
  )");
  store_.Save("x", Value(50));
  engine_.AdvanceTo(Seconds(2));
  EXPECT_EQ(store_.Load("state").value().AsString().value(), "bad");
  store_.Save("x", Value(0));
  engine_.AdvanceTo(Seconds(3));
  EXPECT_EQ(store_.Load("state").value().AsString().value(), "good");
  EXPECT_EQ(Stats("recovering").satisfy_firings, 1u);
  // Staying satisfied does not refire on_satisfy.
  engine_.AdvanceTo(Seconds(6));
  EXPECT_EQ(store_.LoadOr("recoveries", Value(0)).NumericOr(0), 1.0);
}

TEST_F(EngineTest, OnSatisfyNeedsPriorActionFiring) {
  Load(R"(
    guardrail quiet {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(x, 0) <= 10 },
      action: { REPORT() },
      on_satisfy: { INCR(recoveries) }
    }
  )");
  store_.Save("x", Value(0));
  engine_.AdvanceTo(Seconds(5));  // always satisfied: never "recovers"
  EXPECT_FALSE(store_.Contains("recoveries"));
}

TEST_F(EngineTest, RuleErrorIsContainedAndReported) {
  // LOAD of a missing key is nil; nil <= 10 faults. The engine must count
  // the error, report it, and not fire actions.
  Load(R"(
    guardrail faulty {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD(never_set) <= 10 },
      action: { SAVE(tripped, true) }
    }
  )");
  engine_.AdvanceTo(Seconds(2));
  const MonitorStats stats = Stats("faulty");
  EXPECT_EQ(stats.errors, 2u);
  EXPECT_EQ(stats.violations, 0u);
  EXPECT_EQ(stats.action_firings, 0u);
  EXPECT_FALSE(store_.Contains("tripped"));
  EXPECT_EQ(engine_.reporter().CountOfKind(ReportKind::kMonitorError), 2u);
}

TEST_F(EngineTest, FunctionTriggerFiresOnCallout) {
  Load(R"(
    guardrail hooked {
      trigger: { FUNCTION(submit_io) },
      rule: { LOAD_OR(x, 0) <= 10 },
      action: { INCR(fire_count) }
    }
  )");
  engine_.OnFunctionCall("submit_io", Milliseconds(5));
  engine_.OnFunctionCall("submit_io", Milliseconds(6));
  engine_.OnFunctionCall("unrelated_fn", Milliseconds(7));
  EXPECT_EQ(Stats("hooked").evaluations, 2u);
}

TEST_F(EngineTest, MixedTriggersBothFire) {
  Load(R"(
    guardrail both {
      trigger: { TIMER(1s, 1s), FUNCTION(submit_io) },
      rule: { true },
      action: { REPORT() }
    }
  )");
  engine_.OnFunctionCall("submit_io", Milliseconds(100));
  engine_.AdvanceTo(Seconds(1));
  EXPECT_EQ(Stats("both").evaluations, 2u);
}

TEST_F(EngineTest, DisabledMonitorDoesNotEvaluate) {
  Load(kSimpleGuardrail);
  ASSERT_TRUE(engine_.SetEnabled("simple", false).ok());
  engine_.AdvanceTo(Seconds(3));
  EXPECT_EQ(Stats("simple").evaluations, 0u);
  ASSERT_TRUE(engine_.SetEnabled("simple", true).ok());
  engine_.AdvanceTo(Seconds(4));
  EXPECT_EQ(Stats("simple").evaluations, 1u);
}

TEST_F(EngineTest, MetaEnabledFalseLoadsDisabled) {
  Load(R"(
    guardrail dormant {
      trigger: { TIMER(1s, 1s) },
      rule: { false },
      action: { REPORT() },
      meta: { enabled = false }
    }
  )");
  engine_.AdvanceTo(Seconds(3));
  EXPECT_EQ(Stats("dormant").evaluations, 0u);
}

TEST_F(EngineTest, UnloadStopsMonitor) {
  Load(kSimpleGuardrail);
  engine_.AdvanceTo(Seconds(1));
  ASSERT_TRUE(engine_.Unload("simple").ok());
  EXPECT_FALSE(engine_.Contains("simple"));
  engine_.AdvanceTo(Seconds(5));  // queued timer entries must be inert
  EXPECT_FALSE(engine_.StatsFor("simple").ok());
}

TEST_F(EngineTest, UnloadUnknownNameFails) {
  EXPECT_EQ(engine_.Unload("ghost").code(), ErrorCode::kNotFound);
}

TEST_F(EngineTest, HotReplaceSwapsRuleWithoutReboot) {
  Load(kSimpleGuardrail);
  store_.Save("x", Value(15));
  engine_.AdvanceTo(Seconds(1));
  EXPECT_EQ(Stats("simple").violations, 1u);  // 15 > 10

  // Runtime update (§6): same name, looser threshold.
  Load(R"(
    guardrail simple {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(x, 0) <= 100 },
      action: { SAVE(tripped, true) }
    }
  )");
  engine_.AdvanceTo(Seconds(3));
  const MonitorStats stats = Stats("simple");
  EXPECT_EQ(stats.violations, 0u);  // stats reset on replace; 15 <= 100 holds
  EXPECT_GE(stats.evaluations, 1u);
}

TEST_F(EngineTest, MonitorLoadedMidRunStartsFromCurrentTime) {
  engine_.AdvanceTo(Seconds(10));
  Load(kSimpleGuardrail);  // TIMER(1s, 1s) but it is already t=10
  engine_.AdvanceTo(Seconds(12));
  // Fires at t=11 and t=12, not 10 times retroactively.
  EXPECT_EQ(Stats("simple").evaluations, 2u);
}

TEST_F(EngineTest, IncrementalDeploymentAddsMonitors) {
  Load(kSimpleGuardrail);
  engine_.AdvanceTo(Seconds(1));
  Load(R"(
    guardrail second {
      trigger: { TIMER(1s, 1s) },
      rule: { true },
      action: { REPORT() }
    }
  )");
  engine_.AdvanceTo(Seconds(3));
  EXPECT_EQ(engine_.MonitorNames().size(), 2u);
  EXPECT_EQ(Stats("simple").evaluations, 3u);
  EXPECT_EQ(Stats("second").evaluations, 2u);
}

TEST_F(EngineTest, ActionsSeeEvaluationTimestamp) {
  Load(R"(
    guardrail stamper {
      trigger: { TIMER(2s, 1s) },
      rule: { false },
      action: { SAVE(fired_at, NOW()) }
    }
  )");
  engine_.AdvanceTo(Seconds(2));
  EXPECT_EQ(store_.Load("fired_at").value().NumericOr(0), 2e9);
}

TEST_F(EngineTest, DeprioritizeReachesTaskControl) {
  Load(R"(
    guardrail oom-ish {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(mem_pressure, 0) <= 0.9 },
      action: { DEPRIORITIZE({batch_job, background_scan}, {0.1, 0.2}) }
    }
  )");
  store_.Save("mem_pressure", Value(0.95));
  engine_.AdvanceTo(Seconds(1));
  const auto events = task_control_.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].tasks, (std::vector<std::string>{"batch_job", "background_scan"}));
  EXPECT_EQ(events[0].priorities, (std::vector<double>{0.1, 0.2}));
}

TEST_F(EngineTest, ReplaceActionRebindsSlot) {
  struct NamedPolicy : Policy {
    std::string policy_name;
    bool learned;
    explicit NamedPolicy(std::string n, bool l) : policy_name(std::move(n)), learned(l) {}
    std::string name() const override { return policy_name; }
    bool is_learned() const override { return learned; }
  };
  ASSERT_TRUE(registry_.Register(std::make_shared<NamedPolicy>("learned_thing", true)).ok());
  ASSERT_TRUE(registry_.Register(std::make_shared<NamedPolicy>("safe_thing", false)).ok());
  ASSERT_TRUE(registry_.BindSlot("subsystem.decision", "learned_thing").ok());

  Load(R"(
    guardrail fallback {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(quality, 1) >= 0.5 },
      action: { REPLACE(learned_thing, safe_thing) }
    }
  )");
  store_.Save("quality", Value(0.1));
  engine_.AdvanceTo(Seconds(1));
  EXPECT_EQ(registry_.Active("subsystem.decision").value()->name(), "safe_thing");
  ASSERT_EQ(registry_.replace_history().size(), 1u);
  EXPECT_EQ(registry_.replace_history()[0].old_policy, "learned_thing");
}

TEST_F(EngineTest, RetrainActionQueuesRequest) {
  Load(R"(
    guardrail drift {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(drift_score, 0) <= 0.2 },
      action: { RETRAIN(my_model, recent_window) }
    }
  )");
  store_.Save("drift_score", Value(0.8));
  engine_.AdvanceTo(Seconds(1));
  auto request = engine_.retrain_queue().Pop();
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->model, "my_model");
  EXPECT_EQ(request->data_key, "recent_window");
}

TEST_F(EngineTest, EngineStatsAggregateAcrossMonitors) {
  Load(kSimpleGuardrail);
  store_.Save("x", Value(50));
  engine_.AdvanceTo(Seconds(3));
  const EngineStats stats = engine_.stats();
  EXPECT_EQ(stats.timer_firings, 3u);
  EXPECT_EQ(stats.evaluations, 3u);
  EXPECT_EQ(stats.violations, 3u);
  EXPECT_GT(stats.total_wall_ns, 0);
}

// Host time is measured, never stored: the engine times every rule and
// action program, yet two runs of one spec under default options leave the
// same image, store slots and report ring, and the store holds only the keys
// the spec and the engine's simulated-time exports (monitor.*, supervisor.*)
// write.
constexpr char kClockSpec[] = R"(
  guardrail ticker {
    trigger: { TIMER(1s, 1s) },
    rule: { LOAD_OR(x, 0) <= 10 },
    action: { SAVE(ticker.seen, LOAD_OR(x, 0)); REPORT("ticker", LOAD_OR(x, 0)) }
  }
  guardrail hook {
    trigger: { FUNCTION(blk_submit) },
    rule: { LOAD_OR(x, 0) <= 20 },
    action: { SAVE(hook.tripped, true); REPORT("hook") },
    meta: { cooldown = 500ms }
  }
)";

struct ClockRun {
  std::string image;
  std::string slots;  // DumpSlots() in the snapshot codec
  std::string reports;
  std::vector<std::string> keys;
  EngineStats stats;
  MonitorStats ticker;
  MonitorStats hook;
};

ClockRun RunClockSpec() {
  FeatureStore store;
  PolicyRegistry registry;
  Engine engine(&store, &registry);
  EXPECT_TRUE(engine.LoadSource(kClockSpec).ok());
  for (int step = 1; step <= 40; ++step) {
    const SimTime t = Milliseconds(step * 100);
    store.Save("x", Value(step));
    engine.OnFunctionCall("blk_submit", t);
    engine.AdvanceTo(t);
  }
  ClockRun run;
  run.image = engine.EncodeImage();
  Snapshot snapshot;
  snapshot.store = store.DumpSlots();
  run.slots = EncodeSnapshot(snapshot);
  for (const StoreSlotDump& slot : snapshot.store) {
    if (slot.live) {
      run.keys.push_back(slot.key);
    }
  }
  run.reports = engine.EncodeReportRing();
  run.stats = engine.stats();
  run.ticker = engine.StatsFor("ticker").value_or(MonitorStats{});
  run.hook = engine.StatsFor("hook").value_or(MonitorStats{});
  return run;
}

TEST_F(EngineTest, HostClockNeverReachesTheStoreOrTheImage) {
  const ClockRun first = RunClockSpec();
  const ClockRun second = RunClockSpec();
  ASSERT_GT(first.ticker.action_firings, 0u);
  ASSERT_GT(first.hook.action_firings, 0u);
  EXPECT_TRUE(first.image == second.image) << "engine images differ";
  EXPECT_TRUE(first.slots == second.slots) << "store slots differ";
  EXPECT_TRUE(first.reports == second.reports) << "report rings differ";
  for (const std::string& key : first.keys) {
    EXPECT_TRUE(key == "x" || key == "ticker.seen" || key == "hook.tripped" ||
                key.starts_with("monitor.") || key.starts_with("supervisor."))
        << key << " is neither written by the spec nor an engine export";
  }
  // The clock is still read: every evaluation and action program is timed.
  EXPECT_GT(first.stats.total_wall_ns, 0);
  EXPECT_GT(first.ticker.rule_wall_ns, 0);
  EXPECT_GT(first.ticker.action_wall_ns, 0);
  EXPECT_GT(first.hook.action_wall_ns, 0);
}

TEST_F(EngineTest, LoadRejectsUnverifiableProgram) {
  CompiledGuardrail bad;
  bad.name = "bad";
  bad.rule.name = "bad.rule";
  bad.rule.register_count = 1;
  bad.rule.insns.push_back(Insn{Op::kRet, 63, 0, 0, 0});  // r63 out of range
  bad.action = bad.rule;
  EXPECT_EQ(engine_.Load(std::move(bad)).code(), ErrorCode::kVerifierError);
}

// A TIMER interval that is not positive would divide by zero when the
// trigger is armed at or after its start, and would re-arm at the same
// instant forever when it fires. Load refuses it before it interns or pins
// any key.
TEST_F(EngineTest, LoadRejectsNonPositiveTimerInterval) {
  for (const Duration interval : {Duration{0}, -Seconds(1)}) {
    auto compiled = CompileSource(kSimpleGuardrail);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    CompiledGuardrail guardrail = std::move(compiled.value().front());
    ASSERT_EQ(guardrail.triggers.size(), 1u);
    guardrail.triggers[0].interval = interval;
    const size_t keys = store_.key_count();
    const Status status = engine_.Load(std::move(guardrail));
    EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument) << "interval " << interval;
    EXPECT_NE(status.message().find("'simple'"), std::string::npos) << status.ToString();
    EXPECT_EQ(store_.key_count(), keys);
    EXPECT_FALSE(engine_.Contains("simple"));
  }
}

TEST_F(EngineTest, TwoTimersOnOneMonitorBothFire) {
  Load(R"(
    guardrail dual {
      trigger: { TIMER(1s, 2s), TIMER(2s, 2s) },
      rule: { true },
      action: { REPORT() }
    }
  )");
  engine_.AdvanceTo(Seconds(4));
  // t = 1, 3 from the first timer; t = 2, 4 from the second.
  EXPECT_EQ(Stats("dual").evaluations, 4u);
}

// Engine::Load rewrites a store call on a constant key into kCallKeyed, which
// reads the key from the constant pool; the load that copied the key into a
// register the call alone read now loads nil. A slot the executing store
// does not know (the program was resolved against another store) still
// reads the key by name.
TEST_F(EngineTest, KeyedCallsReadTheirKeyFromTheConstantPool) {
  for (int i = 0; i < 100; ++i) {
    store_.InternKey("pad." + std::to_string(i));
  }
  Load(R"(
    guardrail keyed {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(queue.depth.long.name, 0) <= 10 },
      action: { SAVE(tripped, true) }
    }
  )");
  const Program& rule = engine_.FindGuardrail("keyed")->rule;
  const Insn* keyed = nullptr;
  for (const Insn& insn : rule.insns) {
    if (insn.op == Op::kCallKeyed) {
      keyed = &insn;
    }
    if (insn.op == Op::kLoadConst) {
      EXPECT_EQ(rule.consts[static_cast<size_t>(insn.imm)].IfString(), nullptr)
          << "the key is still copied into a register";
    }
  }
  ASSERT_NE(keyed, nullptr);
  EXPECT_EQ(rule.consts[KeyedCallKey(*keyed)], Value("queue.depth.long.name"));
  EXPECT_EQ(static_cast<KeyId>(keyed->aux), store_.FindKey("queue.depth.long.name"));

  Vm vm;
  MonitorHelperEnv env(&store_, nullptr);
  store_.Save("queue.depth.long.name", Value(3));
  EXPECT_EQ(vm.Execute(rule, env).value(), Value(true));
  store_.Save("queue.depth.long.name", Value(20));
  EXPECT_EQ(vm.Execute(rule, env).value(), Value(false));

  FeatureStore other;
  other.Save("queue.depth.long.name", Value(20));
  ASSERT_LT(other.key_count(), static_cast<size_t>(keyed->aux));
  MonitorHelperEnv other_env(&other, nullptr);
  EXPECT_EQ(vm.Execute(rule, other_env).value(), Value(false));
  other.Save("queue.depth.long.name", Value(4));
  EXPECT_EQ(vm.Execute(rule, other_env).value(), Value(true));
}

// --- The per-monitor protocol (Engine::RunProtocol) ---

// Every counted trigger firing ends in exactly one outcome: an evaluation, a
// governor shed (best-effort or standard), a fail-static suppression or
// pinned default, or a supervisor skip (breaker open or rollback pending).
::testing::AssertionResult OneOutcomePerFiring(const Engine& engine) {
  const EngineStats stats = engine.stats();
  const GovernorStats& governor = engine.governor().stats();
  const uint64_t skipped = engine.supervisor().stats().skipped_evals;
  const uint64_t firings = stats.timer_firings + stats.function_firings + stats.change_firings;
  const uint64_t outcomes = stats.evaluations + governor.sheds_besteffort +
                            governor.sheds_standard + governor.static_suppressed +
                            governor.static_applies + skipped;
  if (firings == outcomes) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << firings << " firings but " << outcomes << " outcomes: " << stats.evaluations
         << " evaluated, " << governor.sheds_besteffort + governor.sheds_standard
         << " shed, " << governor.static_suppressed << " suppressed and "
         << governor.static_applies << " pinned by fail-static, " << skipped
         << " skipped by the supervisor";
}

// The E12 storm (tests/governor_storm.h), ungoverned and governed: the
// governed arm sheds both tiers, pins and suppresses the critical monitor's
// default, and every firing still ends in one outcome after every callout.
TEST(EngineProtocolTest, EveryStormFiringEndsInOneOutcome) {
  const LogLevel level = Logger::Global().level();
  Logger::Global().set_level(LogLevel::kOff);
  const std::vector<StormEvent> storm = GovernorStorm();
  for (const bool governed : {false, true}) {
    Kernel kernel(GovernorStormOptions(governed));
    ASSERT_TRUE(kernel.LoadGuardrails(kGovernorStormSpec).ok());
    for (size_t i = 0; i < storm.size(); ++i) {
      StageStormEvent(kernel, storm[i]);
      kernel.Callout("hot_path");
      ASSERT_TRUE(OneOutcomePerFiring(kernel.engine()))
          << (governed ? "governed" : "ungoverned") << ", callout " << i;
    }
    const EngineStats stats = kernel.engine().stats();
    const GovernorStats& governor = kernel.engine().governor().stats();
    EXPECT_EQ(stats.function_firings, 8 * storm.size());  // eight hooked monitors
    if (governed) {
      EXPECT_GT(governor.sheds_besteffort, 0u);
      EXPECT_GT(governor.sheds_standard, 0u);
      EXPECT_GT(governor.static_applies, 0u);
      EXPECT_GT(governor.static_suppressed, 0u);
    } else {
      EXPECT_EQ(stats.evaluations, stats.function_firings);
    }
  }
  Logger::Global().set_level(level);
}

// A supervised breaker cycle (quarantine, skips, probes, reinstatement),
// then a probation deploy that regresses and is rolled back when its window
// ends: the firing that finds the regression is a supervisor skip.
TEST_F(EngineTest, EverySupervisedFiringEndsInOneOutcome) {
  ChaosEngine chaos(7);
  engine_.SetChaos(&chaos);
  Load(R"(
    guardrail cycle {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(x, 0) <= 100 },
      action: { REPORT("corrective") },
      health: { quarantine = 3, probe_every = 4, reinstate = 2 }
    }
    chaos { site vm.budget_exhaust { mode = schedule, nth = {0, 1, 2} } }
  )");
  for (int s = 1; s <= 14; ++s) {
    engine_.AdvanceTo(Seconds(s));
    ASSERT_TRUE(OneOutcomePerFiring(engine_)) << "t = " << s << " s";
  }
  EXPECT_EQ(engine_.supervisor().Find("cycle")->reinstatements, 1u);
  // v2 faults on every evaluation (nil <= 10) but stays under its
  // quarantine bar; only the regression check at the window's end sees it.
  Load(R"(
    guardrail cycle {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD(never_set) <= 10 },
      action: { REPORT("v2") },
      health: { quarantine = 1000, probation = 5s }
    }
  )");
  for (int s = 15; s <= 24; ++s) {
    engine_.AdvanceTo(Seconds(s));
    ASSERT_TRUE(OneOutcomePerFiring(engine_)) << "t = " << s << " s";
  }
  const SupervisorStats& supervisor = engine_.supervisor().stats();
  EXPECT_EQ(supervisor.quarantines, 1u);
  EXPECT_EQ(supervisor.reinstatements, 1u);
  EXPECT_EQ(supervisor.rollbacks, 1u);
  EXPECT_EQ(engine_.stats().timer_firings, 24u);
}

// The records `engine` filed from sequence `from` on.
std::vector<ReportRecord> RecordsSince(Engine& engine, uint64_t from) {
  std::vector<ReportRecord> out;
  engine.reporter().ForEachRecordSince(
      from, [&](const ReportRecord& record) { out.push_back(record); });
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].sequence, out[i].sequence);
  }
  return out;
}

// One supervised evaluation that blows its step budget with quarantine = 1:
// the rule's error, then the quarantine record, then what the corrective
// default itself filed (src/actions/report.h).
TEST_F(EngineTest, ProtocolReportOrderOfAQuarantine) {
  Load(R"(
    guardrail runaway {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(x, 0) <= 100 },
      action: { REPORT("corrective") },
      health: { budget_steps = 1, quarantine = 1 }
    }
  )");
  engine_.AdvanceTo(Seconds(1));
  const std::vector<ReportRecord> records = RecordsSince(engine_, 0);
  ASSERT_EQ(records.size(), 3u);
  for (const ReportRecord& record : records) {
    EXPECT_EQ(record.kind, ReportKind::kMonitorError) << record.ToString();
    EXPECT_EQ(record.guardrail, "runaway");
  }
  EXPECT_NE(records[0].message.find("'runaway.rule' exceeded its runtime budget"),
            std::string::npos)
      << records[0].message;
  EXPECT_EQ(records[1].message, "quarantined by supervisor; applying corrective default");
  // The default runs under the same one-step cap, so it files its own abort.
  EXPECT_NE(records[2].message.find("'runaway.action' exceeded its runtime budget"),
            std::string::npos)
      << records[2].message;
  EXPECT_EQ(engine_.supervisor().stats().quarantines, 1u);
}

// A critical monitor entering fail-static: the fail-static record, then its
// corrective action's REPORT payload, and no evaluation.
TEST(EngineProtocolTest, ProtocolReportOrderOfAFailStaticDefault) {
  EngineOptions options;
  options.governor.enabled = true;
  options.governor.pressure_up = 10.0;  // evaluations per simulated second
  options.governor.pressure_down = 1.0;
  options.governor.dwell_up = 1;
  options.governor.alpha = 1.0;
  FeatureStore store;
  PolicyRegistry registry;
  Engine engine(&store, &registry, nullptr, options);
  ASSERT_TRUE(engine
                  .LoadSource(R"(
    guardrail gate {
      trigger: { FUNCTION(fn) },
      rule: { true },
      action: { SAVE(safe_mode, true); REPORT("safe mode") },
      meta: { severity = critical, criticality = critical }
    }
  )")
                  .ok());
  SimTime t = 0;
  uint64_t from = 0;
  uint64_t evaluations = 0;
  for (int i = 0; i < 16 && engine.governor().stats().static_applies == 0; ++i) {
    from = engine.reporter().total_reports();
    evaluations = engine.stats().evaluations;
    t += Microseconds(1);
    engine.OnFunctionCall("fn", t);
  }
  ASSERT_EQ(engine.governor().stats().static_applies, 1u);
  const std::vector<ReportRecord> records = RecordsSince(engine, from);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].kind, ReportKind::kMonitorError);
  EXPECT_EQ(records[0].message, "overload governor fail-static: applying corrective default");
  EXPECT_EQ(records[1].kind, ReportKind::kActionPayload);
  EXPECT_EQ(records[1].payload, std::vector<Value>{Value("safe mode")});
  for (const ReportRecord& record : records) {
    EXPECT_EQ(record.guardrail, "gate");
    EXPECT_EQ(record.severity, Severity::kCritical);
  }
  EXPECT_EQ(store.LoadOr("safe_mode", Value(false)), Value(true));
  EXPECT_EQ(engine.stats().evaluations, evaluations);  // pinned, not evaluated
}

}  // namespace
}  // namespace osguard
