// Extension E4: feature-store microbenchmarks.
//
// The store (§4.3) is on every monitor's path and on every instrumented
// kernel site's path; these benches bound its costs: scalar SAVE/LOAD,
// counter increments, time-series Observe, and windowed aggregation as a
// function of window population. Each row is NsPerOp's best-of-five batch
// (bench/timing.h).

#include <cstdio>
#include <string>

#include "bench/timing.h"
#include "src/store/feature_store.h"

namespace osguard {
namespace {

void Row(const std::string& op, double ns) {
  std::printf("%-40s %12.1f\n", op.c_str(), ns);
}

void Scalars() {
  {
    FeatureStore store;
    int64_t i = 0;
    Row("save scalar", NsPerOp([&] { store.Save("key", Value(i++)); }));
  }
  {
    FeatureStore store;
    store.Save("key", Value(42));
    Row("load scalar", NsPerOp([&] {
          auto value = store.Load("key");
          KeepAlive(value);
        }));
  }
  for (int64_t keys : {16, 256, 4096}) {
    FeatureStore store;
    for (int64_t i = 0; i < keys; ++i) {
      store.Save("key" + std::to_string(i), Value(i));
    }
    Row("load scalar among " + std::to_string(keys) + " keys", NsPerOp([&] {
          std::string key = "key";
          key += std::to_string(keys / 2);
          auto value = store.Load(key);
          KeepAlive(value);
        }));
  }
  {
    FeatureStore store;
    Row("increment", NsPerOp([&] {
          auto value = store.Increment("counter");
          KeepAlive(value);
        }));
  }
}

void Series() {
  {
    FeatureStore store;
    // Bounded retention so the series doesn't grow during the run.
    store.SetSeriesOptions("series",
                           SeriesOptions{.max_samples = 4096, .max_age = Seconds(10)});
    SimTime t = 0;
    Row("observe (bounded series)", NsPerOp([&] {
          store.Observe("series", t, 1.0);
          t += Microseconds(10);
        }));
  }
  for (int64_t samples : {100, 1000, 10000, 100000}) {
    FeatureStore store;
    store.SetSeriesOptions("series",
                           SeriesOptions{.max_samples = 1 << 20, .max_age = Seconds(3600)});
    for (int64_t i = 0; i < samples; ++i) {
      store.Observe("series", Milliseconds(i), 42.0);
    }
    const SimTime now = Milliseconds(samples);
    Row("MEAN over " + std::to_string(samples) + " samples", NsPerOp([&] {
          auto value = store.Aggregate("series", AggKind::kMean, Seconds(3600), now);
          KeepAlive(value);
        }));
  }
  for (int64_t samples : {100, 1000, 10000}) {
    FeatureStore store;
    store.SetSeriesOptions("series",
                           SeriesOptions{.max_samples = 1 << 20, .max_age = Seconds(3600)});
    for (int64_t i = 0; i < samples; ++i) {
      store.Observe("series", Milliseconds(i), static_cast<double>(i % 997));
    }
    const SimTime now = Milliseconds(samples);
    Row("P99 over " + std::to_string(samples) + " samples", NsPerOp([&] {
          auto value = store.AggregateQuantile("series", 0.99, Seconds(3600), now);
          KeepAlive(value);
        }));
  }
  {
    // Aggregating a 1s window over a series retaining 5 minutes: cost is
    // proportional to retained samples scanned, the honest worst case.
    FeatureStore store;
    for (int64_t i = 0; i < 100000; ++i) {
      store.Observe("series", Milliseconds(i * 3), 1.0);
    }
    const SimTime now = Milliseconds(300000);
    Row("MEAN, 1s window of a 300s series", NsPerOp([&] {
          auto value = store.Aggregate("series", AggKind::kMean, Seconds(1), now);
          KeepAlive(value);
        }));
  }
}

int Main() {
  std::printf("# E4: feature-store costs\n");
  std::printf("%-40s %12s\n", "operation", "ns_per_op");
  Scalars();
  Series();
  return 0;
}

}  // namespace
}  // namespace osguard

int main() { return osguard::Main(); }
