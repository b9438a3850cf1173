// Extension E14: bounded-memory store under million-session churn.
//
// The agent domain mints a key family per session (agent.s<id>.*), so a
// steady arrival of short-lived sessions is the cardinality workload that
// made the intern-only store unbounded. These benches drive that churn
// through a retention-governed kernel and measure the three quantities the
// docs/STORE.md design cares about:
//
//   (a) session churn      — end-to-end cost per tool call with session-end
//                            eager reclamation on, with the live-key count
//                            and approx store bytes after each run of waves
//                            (the boundedness signal; compare against the
//                            retention-off row to see the leak).
//   (b) reclaim throughput — raw reclaim+re-intern cycle cost on a bare
//                            store (the mechanism's ceiling).
//   (c) governor bytes gate — the governor's store-bytes pressure input:
//                            callout cost while bytes are above the ladder's
//                            escalation threshold vs. comfortably below.
//
// The gated version of this experiment (>= 1M session lifecycles, bounded
// steady state, zero stale-generation misreads, p99 against the
// retention-off baseline) is TimingTest.StoreChurnIsBoundedAndCheap in
// tests/timing_test.cc.

#include <cstdio>
#include <string>

#include "bench/timing.h"
#include "src/sim/kernel.h"
#include "src/store/feature_store.h"
#include "src/support/logging.h"
#include "src/support/time.h"
#include "src/wl/sessiongen.h"

namespace osguard {
namespace {

constexpr char kRetentionSpec[] = R"(
  retention {
    scan_chunk = 256
    namespace "agent.s" { max_keys = 50000, idle_ttl = 5s }
  }
)";

SessionWorkloadOptions ChurnOptions() {
  SessionWorkloadOptions options;
  options.duration = Seconds(2);
  options.sessions_per_sec = 2000.0;
  options.mean_bursts = 1.0;
  options.burst_scale = 1.0;
  options.burst_shape = 3.0;  // light tail: ~1-2 calls per session
  options.max_burst_calls = 8;
  return options;
}

// Delivers one churn wave (calls + session-end markers merged by time) with
// session ids offset so successive waves model *new* sessions, not repeats.
void DriveWave(Kernel& kernel, const SessionChurnTrace& trace, uint64_t id_offset,
               SimTime time_offset) {
  size_t end_cursor = 0;
  for (const agent::ToolCallEvent& call : trace.calls) {
    while (end_cursor < trace.ends.size() &&
           trace.ends[end_cursor].at <= call.at) {
      kernel.OnSessionEnd(trace.ends[end_cursor].session + id_offset);
      ++end_cursor;
    }
    agent::ToolCallEvent ev = call;
    ev.at += time_offset;
    ev.session += id_offset;
    kernel.Run(ev.at);
    kernel.OnToolCall(ev);
  }
  for (; end_cursor < trace.ends.size(); ++end_cursor) {
    kernel.OnSessionEnd(trace.ends[end_cursor].session + id_offset);
  }
}

void SessionChurn() {
  constexpr uint64_t kWaves = 10;
  std::printf("# (a) session churn, %llu waves of fresh sessions\n",
              static_cast<unsigned long long>(kWaves));
  std::printf("%-14s %10s %14s %12s %14s %12s\n", "retention", "calls", "ns_per_call",
              "live_keys", "store_bytes", "stale_hits");
  const SessionChurnTrace trace =
      SessionCallGenerator(ChurnOptions(), 0xE14).GenerateChurn();
  for (const bool retention : {false, true}) {
    Kernel kernel;
    if (retention) {
      (void)kernel.LoadGuardrails(kRetentionSpec);
    }
    const int64_t start = WallNs();
    for (uint64_t wave = 0; wave < kWaves; ++wave) {
      DriveWave(kernel, trace, wave * 10'000'000ull, static_cast<SimTime>(wave) * Seconds(3));
    }
    const int64_t elapsed = WallNs() - start;
    const uint64_t calls = trace.calls.size() * kWaves;
    std::printf("%-14s %10llu %14.0f %12llu %14llu %12llu\n",
                retention ? "on" : "off", static_cast<unsigned long long>(calls),
                static_cast<double>(elapsed) / static_cast<double>(calls),
                static_cast<unsigned long long>(kernel.store().live_key_count()),
                static_cast<unsigned long long>(kernel.store().approx_bytes()),
                static_cast<unsigned long long>(kernel.store().stale_hits()));
  }
}

void ReclaimThroughput() {
  std::printf("\n# (b) reclaim + re-intern cycle on a bare store\n");
  FeatureStore store;
  uint64_t n = 0;
  const double ns = NsPerOp([&] {
    std::string key = "churn.k";
    key += std::to_string(n % 1024);
    store.Save(key, Value(static_cast<int64_t>(n)));
    KeepAlive(store.ReclaimKey(key));
    ++n;
  });
  std::printf("ns_per_cycle=%.0f slots=%zu\n", ns, store.key_count());
}

void GovernorBytesGate() {
  std::printf("\n# (c) governor store-bytes gate: callout cost\n");
  std::printf("%-16s %12s %6s %14s\n", "store", "ns_per_call", "mode", "bytes_ewma");
  for (const bool pressured : {false, true}) {
    EngineOptions options;
    options.governor.enabled = true;
    // Bytes-only ladder: the cost/queue signals are left effectively infinite
    // so any escalation observed here is driven by the store-bytes input.
    options.governor.pressure_up = 1e18;
    options.governor.pressure_down = 1e17;
    options.governor.store_bytes_up = 64 * 1024.0;
    options.governor.store_bytes_down = 32 * 1024.0;
    options.governor.dwell_up = 2;
    options.governor.dwell_down = 4;
    Kernel kernel(options);
    (void)kernel.LoadGuardrails(R"(
      guardrail be { trigger: { FUNCTION(f) },
                     rule: { LOAD_OR(x.v, 0) >= 0 },
                     action: { REPORT("be") },
                     meta: { criticality = besteffort } }
    )");
    if (pressured) {
      // Park ~1MiB of string payload in the store so bytes_ewma settles far
      // above the escalation threshold.
      for (int i = 0; i < 1024; ++i) {
        std::string key = "ballast.k";
        key += std::to_string(i);
        kernel.store().Save(key, Value(std::string(1024, 'x')));
      }
    }
    SimTime t = Milliseconds(1);
    const double ns = NsPerOp([&] {
      kernel.Run(t);
      kernel.Callout("f");
      t += Microseconds(100);
    });
    std::printf("%-16s %12.0f %6d %14.0f\n", pressured ? "bytes-pressured" : "bytes-idle", ns,
                static_cast<int>(kernel.engine().governor().mode()),
                kernel.engine().governor().bytes_ewma());
  }
}

int Main() {
  Logger::Global().set_level(LogLevel::kOff);
  std::printf("# E14: bounded-memory store under session churn\n");
  SessionChurn();
  ReclaimThroughput();
  GovernorBytesGate();
  return 0;
}

}  // namespace
}  // namespace osguard

int main() { return osguard::Main(); }
