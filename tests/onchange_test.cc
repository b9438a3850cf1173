// ONCHANGE trigger tests: dependency-driven checking (the paper's §6
// "checked only when relevant system state changes" direction).

#include <gtest/gtest.h>

#include "src/runtime/engine.h"
#include "src/sim/kernel.h"
#include "src/support/logging.h"

namespace osguard {
namespace {

class OnChangeTest : public ::testing::Test {
 protected:
  OnChangeTest() : engine_(&store_, &registry_) {
    Logger::Global().set_level(LogLevel::kOff);
  }

  void Load(const std::string& source) {
    Status status = engine_.LoadSource(source);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }

  MonitorStats Stats(const std::string& name) { return engine_.StatsFor(name).value(); }

  FeatureStore store_;
  PolicyRegistry registry_;
  Engine engine_;
};

constexpr char kWatcher[] = R"(
  guardrail watcher {
    trigger: { ONCHANGE(watched_key) },
    rule: { LOAD_OR(watched_key, 0) <= 10 },
    action: { INCR(fires) }
  }
)";

TEST_F(OnChangeTest, ParsesAndCompiles) {
  auto compiled = CompileSource(kWatcher);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  ASSERT_EQ(compiled.value()[0].triggers.size(), 1u);
  EXPECT_EQ(compiled.value()[0].triggers[0].kind, TriggerKind::kOnChange);
  EXPECT_EQ(compiled.value()[0].triggers[0].watch_key, "watched_key");
}

TEST_F(OnChangeTest, FiresOnWatchedWriteOnly) {
  Load(kWatcher);
  store_.Save("unrelated", Value(99));
  EXPECT_EQ(Stats("watcher").evaluations, 0u);
  store_.Save("watched_key", Value(5));
  EXPECT_EQ(Stats("watcher").evaluations, 1u);
  EXPECT_EQ(Stats("watcher").violations, 0u);
}

TEST_F(OnChangeTest, DetectsViolationImmediatelyOnWrite) {
  Load(kWatcher);
  store_.Save("watched_key", Value(50));
  EXPECT_EQ(Stats("watcher").violations, 1u);
  EXPECT_EQ(store_.LoadOr("fires", Value(0)).NumericOr(0), 1.0);
}

TEST_F(OnChangeTest, NoPeriodicCostWhenKeyIsQuiet) {
  Load(kWatcher);
  engine_.AdvanceTo(Seconds(1000));  // a long quiet run
  EXPECT_EQ(Stats("watcher").evaluations, 0u);
  EXPECT_EQ(engine_.stats().change_firings, 0u);
}

TEST_F(OnChangeTest, IncrementAndObserveAlsoTrigger) {
  Load(R"(
    guardrail counter-watch {
      trigger: { ONCHANGE(counter) },
      rule: { LOAD_OR(counter, 0) <= 2 },
      action: { REPORT() }
    }
    guardrail series-watch {
      trigger: { ONCHANGE(latency_series) },
      rule: { COUNT(latency_series, 10s) <= 2 },
      action: { REPORT() }
    }
  )");
  store_.Increment("counter");
  store_.Increment("counter");
  store_.Increment("counter");
  EXPECT_EQ(Stats("counter-watch").evaluations, 3u);
  EXPECT_EQ(Stats("counter-watch").violations, 1u);

  engine_.AdvanceTo(Seconds(1));  // evaluations see samples at their own time
  store_.Observe("latency_series", Seconds(1), 1.0);
  store_.Observe("latency_series", Seconds(1), 2.0);
  store_.Observe("latency_series", Seconds(1), 3.0);
  EXPECT_EQ(Stats("series-watch").evaluations, 3u);
  EXPECT_EQ(Stats("series-watch").violations, 1u);
}

TEST_F(OnChangeTest, SelfWriteDoesNotRecurseUnbounded) {
  // The action writes the key it watches: the deferred-cascade machinery
  // must bound this instead of looping forever.
  Load(R"(
    guardrail self-feeding {
      trigger: { ONCHANGE(hot) },
      rule: { LOAD_OR(hot, 0) <= 0 },
      action: { SAVE(hot, LOAD_OR(hot, 0) + 1); INCR(fires) }
    }
  )");
  store_.Save("hot", Value(1));  // kicks off the cascade
  const double fires = store_.LoadOr("fires", Value(0)).NumericOr(0);
  EXPECT_GE(fires, 1.0);
  EXPECT_LE(fires, 70.0);  // bounded by the cascade budget
  EXPECT_GT(engine_.stats().change_cascade_suppressed, 0u);
}

TEST_F(OnChangeTest, MutualWritersAreBounded) {
  // Two guardrails, each watching the key the other writes (§6's loop).
  Load(R"(
    guardrail ping {
      trigger: { ONCHANGE(a) },
      rule: { false },
      action: { SAVE(b, 1); INCR(ping_fires) }
    }
    guardrail pong {
      trigger: { ONCHANGE(b) },
      rule: { false },
      action: { SAVE(a, 1); INCR(pong_fires) }
    }
  )");
  store_.Save("a", Value(1));
  const double total = store_.LoadOr("ping_fires", Value(0)).NumericOr(0) +
                       store_.LoadOr("pong_fires", Value(0)).NumericOr(0);
  EXPECT_GE(total, 2.0);
  EXPECT_LE(total, 70.0);
}

TEST_F(OnChangeTest, MixedWithTimerTrigger) {
  Load(R"(
    guardrail hybrid {
      trigger: { TIMER(1s, 1s), ONCHANGE(metric) },
      rule: { LOAD_OR(metric, 0) <= 10 },
      action: { REPORT() }
    }
  )");
  engine_.AdvanceTo(Seconds(2));          // 2 timer evals
  store_.Save("metric", Value(3));        // 1 change eval
  EXPECT_EQ(Stats("hybrid").evaluations, 3u);
}

TEST_F(OnChangeTest, DisabledMonitorIgnoresChanges) {
  Load(kWatcher);
  ASSERT_TRUE(engine_.SetEnabled("watcher", false).ok());
  store_.Save("watched_key", Value(50));
  EXPECT_EQ(Stats("watcher").evaluations, 0u);
}

TEST_F(OnChangeTest, UnloadRemovesWatch) {
  Load(kWatcher);
  ASSERT_TRUE(engine_.Unload("watcher").ok());
  store_.Save("watched_key", Value(50));  // must not crash or fire
  EXPECT_FALSE(engine_.StatsFor("watcher").ok());
}

TEST_F(OnChangeTest, KernelWiringWorksEndToEnd) {
  Kernel kernel;
  ASSERT_TRUE(kernel.LoadGuardrails(R"(
    guardrail oob {
      trigger: { ONCHANGE(ra.last_decision) },
      rule: { LOAD_OR(ra.last_decision, 0) <= 64 },
      action: { INCR(oob_detections) }
    }
  )").ok());
  kernel.store().Save("ra.last_decision", Value(32));
  kernel.store().Save("ra.last_decision", Value(100000));
  kernel.store().Save("ra.last_decision", Value(8));
  EXPECT_EQ(kernel.store().LoadOr("oob_detections", Value(0)).NumericOr(0), 1.0);
}

// The engine is its store's observer from construction: on a bare store,
// with nothing routed by hand, a write fires the ONCHANGE monitor watching
// the key, and retention stamps the write, so the key ages out at its TTL.
TEST_F(OnChangeTest, BareEngineFiresOnChangeAndStampsRetention) {
  FeatureStore store;
  PolicyRegistry registry;
  Engine engine(&store, &registry);
  ASSERT_TRUE(engine.LoadSource(std::string(kWatcher) + R"(
    retention { namespace "tmp." { idle_ttl = 1s } }
  )").ok());
  store.Save("watched_key", Value(50));
  EXPECT_EQ(engine.stats().change_firings, 1u);
  EXPECT_EQ(store.LoadOr("fires", Value(0)).NumericOr(0), 1.0);

  engine.AdvanceTo(Milliseconds(500));
  store.Save("tmp.idle", Value(1));  // stamped at 500 ms
  engine.AdvanceTo(Milliseconds(1400));
  EXPECT_TRUE(store.Contains("tmp.idle"));  // idle 900 ms
  engine.AdvanceTo(Milliseconds(1600));
  EXPECT_FALSE(store.Contains("tmp.idle"));  // idle 1.1 s
  EXPECT_EQ(engine.retention().stats().reclaimed_idle, 1u);
}

// Destroying an engine detaches it from the store: a later write reaches
// nothing (under ASan, a dangling observer would be a use after free), and
// the next engine built on the store takes the hook over.
TEST_F(OnChangeTest, DestroyedEngineDetachesFromTheStore) {
  FeatureStore store;
  PolicyRegistry registry;
  {
    Engine engine(&store, &registry);
    ASSERT_TRUE(engine.LoadSource(kWatcher).ok());
    store.Save("watched_key", Value(50));
  }
  EXPECT_EQ(store.LoadOr("fires", Value(0)).NumericOr(0), 1.0);
  store.Save("watched_key", Value(60));
  store.Observe("watched_key", Seconds(1), 1.0);
  ASSERT_TRUE(store.Erase("watched_key").ok());
  EXPECT_EQ(store.LoadOr("fires", Value(0)).NumericOr(0), 1.0);

  Engine next(&store, &registry);
  ASSERT_TRUE(next.LoadSource(kWatcher).ok());
  store.Save("watched_key", Value(70));
  EXPECT_EQ(next.stats().change_firings, 1u);
  EXPECT_EQ(store.LoadOr("fires", Value(0)).NumericOr(0), 2.0);
}

// A reboot replaces the kernel's engine; the new one owns the hook.
TEST_F(OnChangeTest, RebootedKernelStillFiresOnChange) {
  Kernel kernel;
  ASSERT_TRUE(kernel.LoadGuardrails(kWatcher).ok());
  ASSERT_TRUE(kernel.Reboot().ok());
  kernel.store().Save("watched_key", Value(50));
  EXPECT_EQ(kernel.engine().stats().change_firings, 1u);
  EXPECT_EQ(kernel.store().LoadOr("fires", Value(0)).NumericOr(0), 1.0);
}

TEST_F(OnChangeTest, DetectionLatencyBeatsTimerPolling) {
  // The point of the extension: a violation between timer ticks is caught
  // instantly by ONCHANGE but only at the next tick by TIMER.
  Load(R"(
    guardrail timer-watch {
      trigger: { TIMER(1s, 1s) },
      rule: { LOAD_OR(metric, 0) <= 10 },
      action: { SAVE(timer_detected_at, LOAD_OR(timer_detected_at, NOW())) }
    }
    guardrail change-watch {
      trigger: { ONCHANGE(metric) },
      rule: { LOAD_OR(metric, 0) <= 10 },
      action: { SAVE(change_detected_at, LOAD_OR(change_detected_at, NOW())) }
    }
  )");
  engine_.AdvanceTo(Milliseconds(1100));
  store_.Save("metric", Value(50));  // violation at t=1.1s
  engine_.AdvanceTo(Seconds(3));
  EXPECT_EQ(store_.Load("change_detected_at").value().NumericOr(0), 1.1e9);
  EXPECT_EQ(store_.Load("timer_detected_at").value().NumericOr(0), 2e9);
}

TEST_F(OnChangeTest, CBackendEmitsOnChangeRegistration) {
  auto compiled = CompileSource(kWatcher);
  ASSERT_TRUE(compiled.ok());
  // Emitted C should carry the ONCHANGE registration macro.
  // (EmitKernelModuleSource is exercised fully in c_backend_test.)
  EXPECT_EQ(compiled.value()[0].triggers[0].kind, TriggerKind::kOnChange);
}

TEST_F(OnChangeTest, OnChangeWithEmptyHooksIsCheap) {
  // No guardrails loaded: the observer must be near-free.
  for (int i = 0; i < 1000; ++i) {
    store_.Save("any", Value(i));
  }
  EXPECT_EQ(engine_.stats().change_firings, 0u);
}

}  // namespace
}  // namespace osguard
