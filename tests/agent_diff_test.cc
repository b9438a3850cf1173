// Warm-restart differential for the agent callout path (docs/AGENT.md): a
// kernel that panics mid-trace and warm-restarts must end in the same
// observable state as an uninterrupted run of the same seed. Each seed
// derives a bursty multi-session tool-call workload (src/wl/sessiongen)
// under the shipped ONCHANGE governance specs (deny/throttle/kill corrective
// loops), drives it through Kernel::OnToolCall on two journaled kernels, and
// compares feature store + report ring + engine image via the persist codec
// — the same oracle persist_test uses.
//
// 100 seeds per run. OSGUARD_CHAOS_SEED offsets the seed base so CI matrices
// explore fresh seeds without code changes.

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/agent/harness.h"
#include "src/persist/persist.h"
#include "src/sim/kernel.h"
#include "src/support/logging.h"
#include "src/support/rng.h"
#include "src/wl/sessiongen.h"
#include "tests/test_dir.h"

#ifndef OSGUARD_SPECS_DIR
#define OSGUARD_SPECS_DIR "specs"
#endif

namespace osguard {
namespace {

namespace fs = std::filesystem;

uint64_t SeedBase() {
  const char* env = std::getenv("OSGUARD_CHAOS_SEED");
  return env != nullptr ? static_cast<uint64_t>(std::strtoull(env, nullptr, 10)) : 0;
}

std::string GovernanceSpec() {
  std::ifstream in(std::string(OSGUARD_SPECS_DIR) + "/agent_governance.osg");
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Per-seed workload shape: every parameter the generator exposes is varied
// so the campaign sweeps arrival rates, burst tails, and tool mixes.
SessionWorkloadOptions WorkloadFor(uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 17);
  SessionWorkloadOptions options;
  options.duration = Milliseconds(static_cast<int64_t>(rng.UniformInt(250, 500)));
  options.sessions_per_sec = rng.Uniform(50.0, 120.0);
  options.mean_bursts = rng.Uniform(1.5, 4.0);
  options.burst_shape = rng.Uniform(1.1, 2.0);
  options.max_burst_calls = 64;
  options.mean_intra_gap = Milliseconds(static_cast<int64_t>(rng.UniformInt(2, 10)));
  options.mean_think = Milliseconds(static_cast<int64_t>(rng.UniformInt(50, 200)));
  options.net_fraction = rng.Uniform(0.15, 0.4);
  options.exec_fraction = rng.Uniform(0.02, 0.08);
  options.secret_fraction = rng.Uniform(0.02, 0.1);
  return options;
}

// Drives the seed's trace through a kernel journaled into `persist_dir` and
// returns the wire-encoded observable state. With `reboot`, the kernel
// delivers half the trace, panics, warm-restarts, and resumes at the same
// event index. Every OnToolCall commits a journal frame, so recovery
// restores the state as of the last delivered event.
std::string RunWorkload(uint64_t seed, const std::string& persist_dir, bool reboot) {
  Kernel kernel;
  PersistOptions persist_options;
  persist_options.dir = persist_dir;
  PersistManager persist(persist_options);
  kernel.AttachPersist(&persist);
  EXPECT_TRUE(kernel.LoadGuardrails(GovernanceSpec()).ok());
  EXPECT_TRUE(persist.Open().ok());

  const agent::Harness harness(WorkloadFor(seed), seed);
  const std::span<const agent::ToolCallEvent> events(harness.events());
  if (reboot) {
    const size_t half = events.size() / 2;
    agent::ReplayTrace(kernel, events.first(half));
    kernel.Panic();
    auto recovery = kernel.Reboot();
    EXPECT_TRUE(recovery.ok());
    if (recovery.ok()) {
      EXPECT_FALSE(recovery.value().cold_start);
    }
    agent::ReplayTrace(kernel, events, half);
  } else {
    agent::ReplayTrace(kernel, events);
  }

  Snapshot snapshot;
  snapshot.store = kernel.store().DumpSlots();
  snapshot.report_ring = kernel.engine().EncodeReportRing();
  snapshot.image = kernel.engine().EncodeImage();
  return EncodeSnapshot(snapshot);
}

class AgentDiffTest : public ::testing::Test {
 protected:
  AgentDiffTest() { Logger::Global().set_level(LogLevel::kOff); }
};

TEST_F(AgentDiffTest, PersistWarmRestartSeeds) {
  const uint64_t base = SeedBase() + 0x80000;
  const fs::path reference_dir = FreshTestDir("reference");
  const fs::path restart_dir = FreshTestDir("restart");
  for (uint64_t i = 0; i < 100; ++i) {
    const uint64_t seed = base + i;
    const fs::path reference = reference_dir / std::to_string(seed);
    const fs::path restart = restart_dir / std::to_string(seed);
    fs::create_directories(reference);
    fs::create_directories(restart);
    ASSERT_EQ(RunWorkload(seed, reference.string(), /*reboot=*/false),
              RunWorkload(seed, restart.string(), /*reboot=*/true))
        << "seed=" << seed;
  }
  fs::remove_all(reference_dir);
  fs::remove_all(restart_dir);
}

}  // namespace
}  // namespace osguard
