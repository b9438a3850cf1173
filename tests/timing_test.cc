// Wall-clock gates, under `ctest -L timing`. The binary runs serially
// (RUN_SERIAL) and takes about 40 s in an optimized build, most of it the
// million-session store run; sanitizer builds skip it with
// `ctest -LE timing`.
//
// A comparison runs both sides in this one process, in lockstep: event by
// event (or batch by batch), alternating which side goes first, so host
// noise lands on both. Over the repetitions each event or batch keeps its
// fastest time (perfbench's per-event best), and the gate compares a
// quantile of those bests. The gates:
//   * supervision: an untripped health block costs at most 25% at p99 over
//     1,000 batches of 100 evaluations;
//   * governor: governed p99 at most ungoverned, over the callouts the E12
//     storm delivers (tests/governor_storm.h);
//   * store: >= 1M session lifecycles stay bounded (final and peak within 2x
//     of the settled wave), read no stale slot, and cost at most 1.05x the
//     retention-off p99 per event, where an event is a tool call with the
//     Kernel::Run before it (retention's boundary work) or a session end
//     (its teardown);
//   * persist: a crash at step 1,503 of 2,000 recovers byte-identical to the
//     uninterrupted run, in at most 500 ms.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/persist/persist.h"
#include "src/runtime/engine.h"
#include "src/sim/kernel.h"
#include "src/support/logging.h"
#include "src/support/rng.h"
#include "src/support/time.h"
#include "src/wl/sessiongen.h"
#include "tests/governor_storm.h"
#include "tests/test_dir.h"

namespace osguard {
namespace {

namespace fs = std::filesystem;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename Fn>
int64_t TimeNs(Fn&& fn) {
  const int64_t start = NowNs();
  fn();
  return NowNs() - start;
}

// perfbench's rank quantile: the element at rank floor(q * n), capped at the
// last one.
double QuantileNs(std::vector<int64_t> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const size_t rank =
      std::min(values.size() - 1, static_cast<size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return static_cast<double>(values[rank]);
}

// Per-event bests: element i is the fastest time event i took over all
// repetitions.
class EventBests {
 public:
  explicit EventBests(size_t events) : best_ns_(events, std::numeric_limits<int64_t>::max()) {}
  void Record(size_t event, int64_t ns) { best_ns_[event] = std::min(best_ns_[event], ns); }
  const std::vector<int64_t>& best_ns() const { return best_ns_; }

 private:
  std::vector<int64_t> best_ns_;
};

class TimingTest : public ::testing::Test {
 protected:
  TimingTest() { Logger::Global().set_level(LogLevel::kOff); }
};

// --- Supervision overhead ---

// One `hot` monitor on a 1 ms TIMER, warmed up for a simulated second. The
// supervised one carries a health block that never trips.
struct HotMonitor {
  explicit HotMonitor(bool supervised) : engine(&store, &registry) {
    const std::string health =
        supervised ? ",\n  health: { budget_steps = 1000000, quarantine = 1000000, "
                     "flap_threshold = 1000000 }\n"
                   : "\n";
    ok = engine
             .LoadSource("guardrail hot {\n"
                         "  trigger: { TIMER(1ms, 1ms) },\n"
                         "  rule: { LOAD_OR(x, 0) <= 100 },\n"
                         "  action: { REPORT() }" +
                         health + "}\n")
             .ok();
    engine.AdvanceTo(Seconds(1));
  }
  FeatureStore store;
  PolicyRegistry registry;
  Engine engine;
  bool ok = false;
};

TEST_F(TimingTest, SupervisionCostsAtMostAQuarterAtP99) {
  constexpr int kBatches = 1000;  // of 100 evaluations: 100 ms of a 1 ms timer
  constexpr int kRepetitions = 20;
  EventBests bare_bests(kBatches);
  EventBests supervised_bests(kBatches);
  for (int rep = 0; rep < kRepetitions; ++rep) {
    HotMonitor bare(false);
    HotMonitor supervised(true);
    ASSERT_TRUE(bare.ok && supervised.ok);
    for (int b = 0; b < kBatches; ++b) {
      const SimTime until = Seconds(1) + Milliseconds(100) * (b + 1);
      const bool supervised_first = (b + rep) % 2 == 0;
      for (int turn = 0; turn < 2; ++turn) {
        if ((turn == 0) == supervised_first) {
          supervised_bests.Record(b, TimeNs([&] { supervised.engine.AdvanceTo(until); }));
        } else {
          bare_bests.Record(b, TimeNs([&] { bare.engine.AdvanceTo(until); }));
        }
      }
    }
    ASSERT_EQ(bare.engine.stats().evaluations, 1000u + 100u * kBatches);
    ASSERT_EQ(supervised.engine.stats().evaluations, 1000u + 100u * kBatches);
  }
  const double bare_p99 = QuantileNs(bare_bests.best_ns(), 0.99);
  const double supervised_p99 = QuantileNs(supervised_bests.best_ns(), 0.99);
  std::printf("supervision p99 per 100-eval batch: bare %.0f ns, supervised %.0f ns, "
              "overhead %+.1f%%\n",
              bare_p99, supervised_p99, 100.0 * (supervised_p99 / bare_p99 - 1.0));
  EXPECT_LE(supervised_p99, 1.25 * bare_p99);
}

// --- Governor: storm-phase p99 ---

TEST_F(TimingTest, GovernedStormP99IsAtMostUngoverned) {
  constexpr int kRepetitions = 20;
  const std::vector<StormEvent> storm = GovernorStorm();
  EventBests ungoverned_bests(storm.size());
  EventBests governed_bests(storm.size());
  for (int rep = 0; rep < kRepetitions; ++rep) {
    Kernel ungoverned(GovernorStormOptions(false));
    Kernel governed(GovernorStormOptions(true));
    ASSERT_TRUE(ungoverned.LoadGuardrails(kGovernorStormSpec).ok());
    ASSERT_TRUE(governed.LoadGuardrails(kGovernorStormSpec).ok());
    for (size_t i = 0; i < storm.size(); ++i) {
      StageStormEvent(ungoverned, storm[i]);
      StageStormEvent(governed, storm[i]);
      const bool governed_first = (i + static_cast<size_t>(rep)) % 2 == 0;
      for (int turn = 0; turn < 2; ++turn) {
        if ((turn == 0) == governed_first) {
          governed_bests.Record(i, TimeNs([&] { governed.Callout("hot_path"); }));
        } else {
          ungoverned_bests.Record(i, TimeNs([&] { ungoverned.Callout("hot_path"); }));
        }
      }
    }
  }
  // The population is the callouts the storm delivers. The calm callouts run
  // at full service on both sides (the same eight evaluations), so over all
  // callouts the p99 falls among them and compares two equal costs.
  std::vector<int64_t> ungoverned_storm;
  std::vector<int64_t> governed_storm;
  for (size_t i = 0; i < storm.size(); ++i) {
    if (storm[i].storm) {
      ungoverned_storm.push_back(ungoverned_bests.best_ns()[i]);
      governed_storm.push_back(governed_bests.best_ns()[i]);
    }
  }
  ASSERT_FALSE(governed_storm.empty());
  const double ungoverned_p99 = QuantileNs(ungoverned_storm, 0.99);
  const double governed_p99 = QuantileNs(governed_storm, 0.99);
  std::printf("storm callout p99 over %zu storm callouts: ungoverned %.0f ns, governed "
              "%.0f ns, ratio %.2f\n",
              governed_storm.size(), ungoverned_p99, governed_p99,
              governed_p99 / ungoverned_p99);
  EXPECT_LE(governed_p99, ungoverned_p99);
}

// --- Store: a million session lifecycles ---

constexpr char kRetentionSpec[] = R"(
  retention {
    scan_chunk = 256
    namespace "agent.s" { max_keys = 60000, idle_ttl = 5s }
  }
)";

// About 10k sessions per wave, one or two calls each.
SessionWorkloadOptions ChurnOptions() {
  SessionWorkloadOptions options;
  options.duration = Seconds(2);
  options.sessions_per_sec = 5000.0;
  options.max_sessions = 100000;
  options.mean_bursts = 1.0;
  options.burst_scale = 1.0;
  options.burst_shape = 3.0;
  options.max_burst_calls = 8;
  return options;
}

struct Footprint {
  uint64_t live_keys = 0;
  uint64_t bytes = 0;
};

// The retention-governed run is 110 waves; the retention-off baseline runs
// the first 10 alongside it, event by event, and then stops: its store grows
// without bound, and ten waves keep that affordable. Every wave is new
// sessions: ids and times are offset per wave. A sample is one event: the
// Kernel::Run up to a call plus the call (retention reclaims at the
// boundaries Run reaches), or one session end (where it tears the session's
// keys down).
TEST_F(TimingTest, StoreChurnIsBoundedAndCheap) {
  constexpr uint64_t kWaves = 110;
  constexpr uint64_t kBaselineWaves = 10;
  // By this wave every bounded structure has filled (the global
  // agent.calls.stream series caps at 65,536 samples around wave 5), so
  // later growth is a leak, not a buffer reaching its bound.
  constexpr uint64_t kSettleWave = 20;

  Kernel governed;
  Kernel baseline;
  ASSERT_TRUE(governed.LoadGuardrails(kRetentionSpec).ok());
  Kernel* kernels[2] = {&governed, &baseline};
  const SessionChurnTrace trace = SessionCallGenerator(ChurnOptions(), 0xE14).GenerateChurn();
  std::vector<int64_t> samples[2];
  const size_t events = trace.calls.size() + trace.ends.size();
  samples[0].reserve(events * kWaves);
  samples[1].reserve(events * kBaselineWaves);
  uint64_t sessions = 0;
  Footprint settled;
  Footprint peak;
  Footprint last;
  for (uint64_t wave = 0; wave < kWaves; ++wave) {
    const int arms = wave < kBaselineWaves ? 2 : 1;
    const uint64_t id_offset = wave * 10'000'000ull;
    const SimTime time_offset = static_cast<SimTime>(wave) * Seconds(3);
    // Which arm goes first alternates event by event.
    auto end_session = [&](size_t e) {
      const uint64_t session = trace.ends[e].session + id_offset;
      for (int turn = 0; turn < arms; ++turn) {
        const int arm = arms == 2 ? (turn + static_cast<int>(e % 2)) % 2 : 0;
        samples[arm].push_back(TimeNs([&] { kernels[arm]->OnSessionEnd(session); }));
      }
    };
    size_t end_cursor = 0;
    for (size_t c = 0; c < trace.calls.size(); ++c) {
      agent::ToolCallEvent ev = trace.calls[c];
      for (; end_cursor < trace.ends.size() && trace.ends[end_cursor].at <= ev.at;
           ++end_cursor) {
        end_session(end_cursor);
      }
      ev.at += time_offset;
      ev.session += id_offset;
      for (int turn = 0; turn < arms; ++turn) {
        const int arm = arms == 2 ? (turn + static_cast<int>(c % 2)) % 2 : 0;
        samples[arm].push_back(TimeNs([&] {
          kernels[arm]->Run(ev.at);
          kernels[arm]->OnToolCall(ev);
        }));
      }
    }
    for (; end_cursor < trace.ends.size(); ++end_cursor) {
      end_session(end_cursor);
    }
    sessions += trace.ends.size();
    last = {governed.store().live_key_count(), governed.store().approx_bytes()};
    if (wave == kSettleWave) {
      settled = last;
    }
    peak.live_keys = std::max(peak.live_keys, last.live_keys);
    peak.bytes = std::max(peak.bytes, last.bytes);
  }
  const double governed_p99 = QuantileNs(samples[0], 0.99);
  const double baseline_p99 = QuantileNs(samples[1], 0.99);
  std::printf("store churn: %llu sessions; live keys settled/peak/final %llu/%llu/%llu, "
              "bytes %llu/%llu/%llu; p99 per event: governed %.0f ns, retention off %.0f ns\n",
              static_cast<unsigned long long>(sessions),
              static_cast<unsigned long long>(settled.live_keys),
              static_cast<unsigned long long>(peak.live_keys),
              static_cast<unsigned long long>(last.live_keys),
              static_cast<unsigned long long>(settled.bytes),
              static_cast<unsigned long long>(peak.bytes),
              static_cast<unsigned long long>(last.bytes), governed_p99, baseline_p99);
  EXPECT_GE(sessions, 1000000u);
  EXPECT_LE(last.live_keys, 2 * settled.live_keys);
  EXPECT_LE(peak.live_keys, 2 * settled.live_keys);
  EXPECT_LE(last.bytes, 2 * settled.bytes);
  EXPECT_LE(peak.bytes, 2 * settled.bytes);
  EXPECT_EQ(governed.store().stale_hits(), 0u);
  EXPECT_LE(governed_p99, 1.05 * baseline_p99);
}

// --- Persist: recovery after a crash ---

constexpr char kPersistSpec[] = R"(
guardrail lat-p99 {
  trigger: { TIMER(100ms, 40ms) },
  rule: { COUNT(io.lat, 400ms) == 0 || P99(io.lat, 400ms) <= 5ms },
  action: { SAVE(lat.flag, true); REPORT("p99 high", MEAN(io.lat, 400ms)) },
  on_satisfy: { SAVE(lat.flag, false) },
  meta: { severity = warning, cooldown = 120ms, hysteresis = 2 }
}
guardrail err-watch {
  trigger: { TIMER(60ms, 30ms), ONCHANGE(err.rate) },
  rule: { LOAD_OR(err.rate, 0) <= 0.5 },
  action: { INCR(err.trips); REPORT("err rate tripped") },
  meta: { hysteresis = 1 }
}
persist { interval = 250ms, journal_budget = 65536 }
)";

constexpr Duration kStepWindow = Milliseconds(50);

// An engine journaling into `dir`; it observes the store's writes itself.
struct JournaledRun {
  explicit JournaledRun(const fs::path& dir) {
    engine = std::make_unique<Engine>(&store, &registry);
    PersistOptions popts;
    popts.dir = dir.string();
    persist = std::make_unique<PersistManager>(popts);
    engine->SetPersist(persist.get());
    ok = engine->LoadSource(kPersistSpec).ok();
  }

  // Step `step`'s seeded workload: one to four latency samples, sometimes an
  // error-rate write, then the engine advances to the end of the window.
  void Step(int step) {
    Rng rng(0x9E3779B97F4A7C15ull + static_cast<uint64_t>(step));
    const SimTime start = static_cast<SimTime>(step) * kStepWindow;
    const int observations = static_cast<int>(rng.UniformInt(1, 4));
    for (int i = 0; i < observations; ++i) {
      const SimTime t = start + rng.UniformInt(1, kStepWindow - 1);
      store.Observe("io.lat", t,
                    rng.Bernoulli(0.2) ? rng.Uniform(5.0e6, 2.0e7) : rng.Uniform(1.0e5, 4.0e6));
    }
    if (rng.Bernoulli(0.4)) {
      store.Save("err.rate", Value(rng.Uniform(0.0, 1.0)));
    }
    engine->AdvanceTo(start + kStepWindow);
  }

  std::string StateBytes() {
    Snapshot snapshot;
    snapshot.store = store.DumpSlots();
    snapshot.report_ring = engine->EncodeReportRing();
    snapshot.image = engine->EncodeImage();
    return EncodeSnapshot(snapshot);
  }

  FeatureStore store;
  PolicyRegistry registry;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<PersistManager> persist;
  bool ok = false;
};

TEST_F(TimingTest, PersistRecoveryIsExactAndFast) {
  constexpr int kSteps = 2000;
  // Mid-way between snapshots (the 250 ms interval snapshots every 5th step),
  // so recovery replays a journal suffix rather than landing on a snapshot.
  constexpr int kCrashStep = 1503;
  const fs::path root = FreshTestDir("timing-persist");
  fs::create_directories(root / "ref");
  fs::create_directories(root / "crash");

  std::string want;
  {
    JournaledRun reference(root / "ref");
    ASSERT_TRUE(reference.ok);
    ASSERT_TRUE(reference.persist->Open().ok());
    for (int step = 0; step < kSteps; ++step) {
      reference.Step(step);
    }
    want = reference.StateBytes();
  }

  std::vector<uint64_t> seq_after(kCrashStep, 0);
  {
    JournaledRun doomed(root / "crash");
    ASSERT_TRUE(doomed.ok);
    ASSERT_TRUE(doomed.persist->Open().ok());
    for (int step = 0; step < kCrashStep; ++step) {
      doomed.Step(step);
      seq_after[static_cast<size_t>(step)] = doomed.persist->last_committed_seq();
    }
  }

  JournaledRun recovered(root / "crash");
  ASSERT_TRUE(recovered.ok);
  Result<RecoveryInfo> info = InternalError("not run");
  const int64_t recover_ns =
      TimeNs([&] { info = recovered.engine->Restore(*recovered.persist); });
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_FALSE(info.value().cold_start) << info.value().detail;
  // Resume after the step whose commit recovery landed on.
  int resume = 0;
  if (info.value().last_seq != 0) {
    const auto landed = std::find(seq_after.begin(), seq_after.end(), info.value().last_seq);
    ASSERT_NE(landed, seq_after.end())
        << "recovered seq " << info.value().last_seq << " matches no commit boundary";
    resume = static_cast<int>(landed - seq_after.begin()) + 1;
  }
  for (int step = resume; step < kSteps; ++step) {
    recovered.Step(step);
  }
  std::printf("persist recovery: %.2f ms, %llu frames replayed\n",
              static_cast<double>(recover_ns) / 1e6,
              static_cast<unsigned long long>(info.value().frames_replayed));
  EXPECT_TRUE(recovered.StateBytes() == want) << "recovered run diverged";
  EXPECT_LE(recover_ns, 500'000'000);
  fs::remove_all(root);
}

}  // namespace
}  // namespace osguard
