// Parameterized property sweeps over the engine's trigger and violation
// protocol: exact firing counts across interval / hysteresis / cooldown
// grids. These pin down the arithmetic the prose in engine.h promises.

#include <gtest/gtest.h>

#include "src/runtime/engine.h"
#include "src/support/logging.h"

namespace osguard {
namespace {

class TimerIntervalSweep : public ::testing::TestWithParam<Duration> {};

TEST_P(TimerIntervalSweep, EvaluationCountIsExact) {
  Logger::Global().set_level(LogLevel::kOff);
  const Duration interval = GetParam();
  FeatureStore store;
  PolicyRegistry registry;
  Engine engine(&store, &registry);
  const std::string spec = "guardrail g { trigger: { TIMER(" + std::to_string(interval) +
                           ", " + std::to_string(interval) +
                           ") }, rule: { true }, action: { REPORT() } }";
  ASSERT_TRUE(engine.LoadSource(spec).ok());
  const Duration horizon = Seconds(10);
  engine.AdvanceTo(horizon);
  // Firings at interval, 2*interval, ..., <= horizon.
  const uint64_t expected = static_cast<uint64_t>(horizon / interval);
  EXPECT_EQ(engine.StatsFor("g").value().evaluations, expected);
}

INSTANTIATE_TEST_SUITE_P(Intervals, TimerIntervalSweep,
                         ::testing::Values(Milliseconds(1), Milliseconds(7),
                                           Milliseconds(100), Milliseconds(333),
                                           Seconds(1), Seconds(3)));

class HysteresisSweep : public ::testing::TestWithParam<int> {};

TEST_P(HysteresisSweep, FirstFiringAfterExactlyNViolations) {
  Logger::Global().set_level(LogLevel::kOff);
  const int hysteresis = GetParam();
  FeatureStore store;
  PolicyRegistry registry;
  Engine engine(&store, &registry);
  const std::string spec =
      "guardrail g { trigger: { TIMER(1s, 1s) }, rule: { false }, action: { INCR(fires) }, "
      "meta: { hysteresis = " +
      std::to_string(hysteresis) + " } }";
  ASSERT_TRUE(engine.LoadSource(spec).ok());

  engine.AdvanceTo(Seconds(hysteresis - 1));
  EXPECT_EQ(store.LoadOr("fires", Value(0)).NumericOr(0), 0.0);
  engine.AdvanceTo(Seconds(hysteresis));
  EXPECT_EQ(store.LoadOr("fires", Value(0)).NumericOr(0), 1.0);
  // With no cooldown, every subsequent violated check also fires.
  engine.AdvanceTo(Seconds(hysteresis + 5));
  EXPECT_EQ(store.LoadOr("fires", Value(0)).NumericOr(0), 6.0);
  EXPECT_EQ(engine.StatsFor("g").value().suppressed_hysteresis,
            static_cast<uint64_t>(hysteresis - 1));
}

INSTANTIATE_TEST_SUITE_P(Thresholds, HysteresisSweep, ::testing::Values(1, 2, 3, 5, 10));

struct CooldownCase {
  Duration cooldown;
  uint64_t expected_fires_in_20s;  // checks every 1s, always violated
};

class CooldownSweep : public ::testing::TestWithParam<CooldownCase> {};

TEST_P(CooldownSweep, FiringsRespectMinimumGap) {
  Logger::Global().set_level(LogLevel::kOff);
  const CooldownCase param = GetParam();
  FeatureStore store;
  PolicyRegistry registry;
  Engine engine(&store, &registry);
  const std::string spec =
      "guardrail g { trigger: { TIMER(1s, 1s) }, rule: { false }, action: { INCR(fires) }, "
      "meta: { cooldown = " +
      std::to_string(param.cooldown) + " } }";
  ASSERT_TRUE(engine.LoadSource(spec).ok());
  engine.AdvanceTo(Seconds(20));
  EXPECT_EQ(store.LoadOr("fires", Value(0)).NumericOr(0),
            static_cast<double>(param.expected_fires_in_20s));
}

INSTANTIATE_TEST_SUITE_P(
    Gaps, CooldownSweep,
    ::testing::Values(CooldownCase{0, 20},                 // every check
                      CooldownCase{Seconds(1), 20},        // gap == interval
                      CooldownCase{Seconds(2), 10},        // every other check
                      CooldownCase{Seconds(3), 7},         // t = 1,4,7,10,13,16,19
                      CooldownCase{Seconds(10), 2},        // t = 1, 11
                      CooldownCase{Seconds(30), 1}));      // once

class WindowAggregationSweep : public ::testing::TestWithParam<Duration> {};

TEST_P(WindowAggregationSweep, MeanMatchesClosedForm) {
  // Samples i at t = i seconds, value i; MEAN over window w at t = 100 must
  // average exactly the samples in (100 - w, 100].
  const Duration window = GetParam();
  FeatureStore store;
  for (int i = 1; i <= 100; ++i) {
    store.Observe("s", Seconds(i), static_cast<double>(i));
  }
  const int64_t w_seconds = window / kSecond;
  const int64_t first = std::max<int64_t>(1, 100 - w_seconds + 1);
  double sum = 0;
  int64_t count = 0;
  for (int64_t i = first; i <= 100; ++i) {
    sum += static_cast<double>(i);
    ++count;
  }
  auto mean = store.Aggregate("s", AggKind::kMean, window, Seconds(100));
  ASSERT_TRUE(mean.ok());
  EXPECT_DOUBLE_EQ(mean.value(), sum / static_cast<double>(count)) << w_seconds;
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowAggregationSweep,
                         ::testing::Values(Seconds(1), Seconds(2), Seconds(5), Seconds(17),
                                           Seconds(50), Seconds(100), Seconds(1000)));

// Monitors are independent: N guardrails with disjoint rules fire exactly
// as if alone.
class MonitorCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(MonitorCountSweep, MonitorsDoNotInterfere) {
  Logger::Global().set_level(LogLevel::kOff);
  const int count = GetParam();
  FeatureStore store;
  PolicyRegistry registry;
  Engine engine(&store, &registry);
  std::string spec;
  for (int i = 0; i < count; ++i) {
    const std::string n = std::to_string(i);
    spec += "guardrail g" + n + " { trigger: { TIMER(1s, 1s) }, rule: { LOAD_OR(k" + n +
            ", 0) <= " + n + " }, action: { INCR(f" + n + ") } }\n";
  }
  ASSERT_TRUE(engine.LoadSource(spec).ok());
  // Violate only the even-numbered monitors.
  for (int i = 0; i < count; i += 2) {
    std::string key = "k";
    key += std::to_string(i);
    store.Save(key, Value(1000));
  }
  engine.AdvanceTo(Seconds(3));
  for (int i = 0; i < count; ++i) {
    std::string key = "f";
    key += std::to_string(i);
    const double fires = store.LoadOr(key, Value(0)).NumericOr(0);
    EXPECT_EQ(fires, i % 2 == 0 ? 3.0 : 0.0) << "monitor " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, MonitorCountSweep, ::testing::Values(1, 2, 8, 32, 64));

}  // namespace
}  // namespace osguard
