// Retention-enabled warm-restart replay (docs/STORE.md): with a
// `retention { }` block loaded, a kernel that panics mid-run and
// warm-restarts must replay deterministically. Each seed drives a
// randomized session-churn workload through two rebooted kernels journaling
// into separate directories and compares the full observable state
// (feature-store slots with generations and the free list, the report ring,
// the engine state image including the retention image) byte for byte via
// the persist codec.
//
// The oracle is a second restarted run, not an uninterrupted one: the
// restore re-stamps every governed key's last-write time with the reboot
// time (RetentionManager::ResyncAfterRestore), so the restarted run's
// reclamation trajectory legitimately departs from the uninterrupted run's.
//
// 200 seeds per run. OSGUARD_CHAOS_SEED offsets the seed base so CI matrices
// explore fresh seeds without code changes.

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "src/agent/tool_call.h"
#include "src/persist/persist.h"
#include "src/runtime/engine.h"
#include "src/runtime/retention.h"
#include "src/sim/kernel.h"
#include "src/store/feature_store.h"
#include "src/support/logging.h"
#include "src/support/rng.h"
#include "src/support/time.h"
#include "tests/test_dir.h"

namespace osguard {
namespace {

namespace fs = std::filesystem;

uint64_t SeedBase() {
  const char* env = std::getenv("OSGUARD_CHAOS_SEED");
  return env != nullptr ? static_cast<uint64_t>(std::strtoull(env, nullptr, 10)) : 0;
}

// Governed namespaces sized so the workload below breaches them constantly:
// tmp.* churns through both the TTL and the LRU quota, agent.s* rides the
// spec budget instead of the builtin TTL, and both corrective hooks
// (ONCHANGE on the retention telemetry) cascade into keys the FUNCTION
// rules read.
constexpr char kRetentionDiffSpec[] = R"(
  retention {
    scan_chunk = 8
    namespace "tmp." { max_keys = 5, idle_ttl = 30ms }
    namespace "agent.s" { max_keys = 12, idle_ttl = 80ms }
  }
  guardrail reclaim_watch {
    trigger: { ONCHANGE(store.retention.reclaimed) },
    rule: { LOAD_OR(store.retention.reclaimed, 0) <= 3 },
    action: { INCR(ret.trips) }
  }
  guardrail breach_watch {
    trigger: { ONCHANGE(store.retention.breaches) },
    rule: { LOAD_OR(store.retention.breaches, 0) <= 2 },
    action: { SAVE(ret.breached, true) }
  }
  guardrail ret_gate {
    trigger: { FUNCTION(submit_io) },
    rule: { LOAD_OR(ret.trips, 0) <= 5 },
    action: { REPORT("retention cascades") }
  }
  guardrail lat_mean {
    trigger: { FUNCTION(submit_io) },
    rule: { COUNT(io.lat, 50ms) == 0 || MEAN(io.lat, 50ms) <= 2000000 },
    action: { INCR(lat.trips), REPORT("mean high") }
  }
  guardrail trip_watch {
    trigger: { FUNCTION(submit_io) },
    rule: { LOAD_OR(lat.trips, 0) <= 8 },
    action: { REPORT("too many trips") }
  }
  guardrail flaky {
    trigger: { FUNCTION(complete_io) },
    rule: { LOAD(probe.value) <= 40 },
    action: { INCR(flaky.trips) }
  }
  guardrail periodic {
    trigger: { TIMER(15ms, 15ms) },
    rule: { LOAD_OR(step.counter, 0) <= 30 },
    action: { REPORT("counter high") }
  }
)";

// Runs the seed's workload to completion through a kernel journaled into
// `persist_dir`, panicking and warm-restarting half-way, and returns the
// wire-encoded observable state. The workload mixes plain store traffic
// with agent tool calls and session ends, so generation-tagged slot
// recycling, per-session eager teardown, and boundary reclamation all
// interleave — everything derived from `seed`, identically in both runs.
std::string RunWorkload(uint64_t seed, const std::string& persist_dir,
                        RetentionStats* retention_out = nullptr) {
  Kernel kernel;
  PersistOptions persist_options;
  persist_options.dir = persist_dir;
  PersistManager persist(persist_options);
  kernel.AttachPersist(&persist);
  EXPECT_TRUE(kernel.LoadGuardrails(kRetentionDiffSpec).ok());
  EXPECT_TRUE(persist.Open().ok());

  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  constexpr int kSteps = 24;
  for (int step = 1; step <= kSteps; ++step) {
    kernel.Run(Milliseconds(10) * step);
    const SimTime now = kernel.now();
    const int observations = static_cast<int>(rng.UniformInt(0, 3));
    for (int i = 0; i < observations; ++i) {
      const double sample =
          rng.Bernoulli(0.2) ? rng.Uniform(2.0e6, 8.0e6) : rng.Uniform(1.0e5, 1.5e6);
      kernel.store().Observe("io.lat", now, sample);
    }
    if (rng.Bernoulli(0.3)) {
      kernel.store().Save("probe.value", Value(rng.Uniform(0.0, 90.0)));
    }
    if (rng.Bernoulli(0.25)) {
      kernel.store().Increment("step.counter", 1.0);
    }
    if (rng.Bernoulli(0.7)) {
      // Governed scratch churn: 11 possible keys against a budget of 5 and
      // a 30ms TTL.
      kernel.store().Save("tmp.k" + std::to_string(rng.UniformInt(0, 10)),
                          Value(rng.Uniform(0.0, 1.0)));
    }
    if (rng.Bernoulli(0.6)) {
      // Session churn: short-lived sessions mint agent.s<id>.* families;
      // some end eagerly, the rest age out via the namespace policy.
      agent::ToolCallEvent event;
      event.at = kernel.now();
      event.session = 1 + rng.UniformInt(0, 9) + static_cast<uint64_t>(step / 8) * 16;
      event.tool = static_cast<agent::ToolClass>(rng.UniformInt(0, 2));
      event.fingerprint = rng.UniformInt(0, 1u << 20);
      kernel.OnToolCall(event);
      if (rng.Bernoulli(0.3)) {
        kernel.OnSessionEnd(event.session);
      }
    }
    kernel.Callout("submit_io");
    if (rng.Bernoulli(0.35)) {
      kernel.Callout("complete_io");
    }
    if (step == kSteps / 2) {
      kernel.Panic();
      auto recovery = kernel.Reboot();
      EXPECT_TRUE(recovery.ok());
      EXPECT_FALSE(recovery.value().cold_start);
    }
  }

  if (retention_out != nullptr) {
    *retention_out = kernel.engine().retention().stats();
  }
  Snapshot snapshot;
  snapshot.store = kernel.store().DumpSlots();
  snapshot.report_ring = kernel.engine().EncodeReportRing();
  snapshot.image = kernel.engine().EncodeImage();
  return EncodeSnapshot(snapshot);
}

class RetentionDiffTest : public ::testing::Test {
 protected:
  RetentionDiffTest() { Logger::Global().set_level(LogLevel::kOff); }
};

TEST_F(RetentionDiffTest, PanicWarmRestartSeeds) {
  const uint64_t base = SeedBase() + 0x120000;
  const fs::path first_dir = FreshTestDir("first");
  const fs::path second_dir = FreshTestDir("second");
  uint64_t reclaims = 0;
  uint64_t breaches = 0;
  for (uint64_t i = 0; i < 200; ++i) {
    const uint64_t seed = base + i;
    const fs::path first = first_dir / std::to_string(seed);
    const fs::path second = second_dir / std::to_string(seed);
    fs::create_directories(first);
    fs::create_directories(second);
    RetentionStats stats;
    const std::string expect = RunWorkload(seed, first.string(), &stats);
    ASSERT_EQ(expect, RunWorkload(seed, second.string())) << "seed=" << seed;
    reclaims += stats.reclaimed_idle + stats.reclaimed_quota;
    breaches += stats.quota_breaches;
  }
  // The comparison is only meaningful if the lifecycle machinery actually
  // ran: boundaries must have reclaimed keys and tripped quotas.
  EXPECT_GT(reclaims, 0u);
  EXPECT_GT(breaches, 0u);
  fs::remove_all(first_dir);
  fs::remove_all(second_dir);
}

}  // namespace
}  // namespace osguard
