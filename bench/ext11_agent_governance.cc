// Extension E11: tool-call governance for simulated AI-agent sessions.
//
// The paper's guardrail machinery was built for OS policies (I/O, paging,
// scheduling); this extension points the same engine at a different kind of
// learned component — an agent emitting tool calls — and measures what
// governance costs and how fast it contains misbehavior:
//
//   (a) per-tool-call admission overhead: OnToolCall with no guardrails,
//       with the shipped governance specs, and on a rejected (killed)
//       session where admission short-circuits before publication;
//   (b) calls-to-containment on the scripted incident trace: how many calls
//       each misbehaving session gets before its family's corrective action
//       latches (throttle / deny / kill);
//   (c) sustained governed throughput under a bursty multi-session storm
//       (thousands of concurrent sessions, heavy-tailed burst lengths).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <memory>
#include <string>
#include <vector>

#include "bench/timing.h"
#include "src/actions/agent_control.h"
#include "src/agent/harness.h"
#include "src/sim/agent_callout.h"
#include "src/sim/kernel.h"
#include "src/support/logging.h"
#include "src/wl/sessiongen.h"

#ifndef OSGUARD_SPECS_DIR
#define OSGUARD_SPECS_DIR "specs"
#endif

namespace osguard {
namespace {

std::string GovernanceSpec() {
  std::ifstream in(std::string(OSGUARD_SPECS_DIR) + "/agent_governance.osg");
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::unique_ptr<Kernel> MakeKernel(const std::string& spec) {
  auto kernel = std::make_unique<Kernel>();
  if (!spec.empty()) {
    (void)kernel->LoadGuardrails(spec);
  }
  return kernel;
}

// (a) ns per OnToolCall across admission regimes.
void AdmissionOverhead() {
  std::printf("# (a) admission overhead per tool call (steady state)\n");
  std::printf("%-26s %10s %10s %10s\n", "regime", "p50_ns", "p99_ns", "calls");

  SessionWorkloadOptions options;
  options.duration = Seconds(2);
  options.sessions_per_sec = 120.0;
  const agent::Harness harness(options, 11);

  struct Regime {
    const char* label;
    bool governed;
    bool killed;  // pre-latch a kill so every call takes the reject path
  };
  for (const Regime& regime : {Regime{"ungoverned", false, false},
                               Regime{"governed", true, false},
                               Regime{"governed, killed session", true, true}}) {
    auto kernel = MakeKernel(regime.governed ? GovernanceSpec() : std::string());
    std::vector<double> samples;
    samples.reserve(harness.events().size());
    for (agent::ToolCallEvent ev : harness.events()) {
      if (regime.killed) {
        // Collapse every event onto one pre-killed session: measures the
        // admission short-circuit, not publication.
        ev.session = 7;
      }
      kernel->Run(ev.at);
      if (regime.killed && !kernel->store().Contains(AgentSessionKey(7, "killed"))) {
        kernel->store().Save(AgentSessionKey(7, "killed"), Value(true));
      }
      const int64_t start = WallNs();
      (void)kernel->OnToolCall(ev);
      samples.push_back(static_cast<double>(WallNs() - start));
    }
    std::sort(samples.begin(), samples.end());
    const size_t last = samples.size() - 1;
    std::printf("%-26s %10.0f %10.0f %10zu\n", regime.label, samples[last / 2],
                samples[static_cast<size_t>(static_cast<double>(last) * 0.99)],
                samples.size());
  }
}

// (b) calls-to-containment on the scripted incident.
void CallsToContainment() {
  std::printf("\n# (b) calls-to-containment on the scripted incident trace\n");
  std::printf("%-22s %-10s %22s\n", "family", "action", "offender_calls_admitted");

  auto kernel = MakeKernel(GovernanceSpec());
  uint64_t admitted[5] = {0, 0, 0, 0, 0};  // sessions 1..4 (index 0 unused)
  for (const agent::ToolCallEvent& ev : agent::MakeIncidentTrace()) {
    kernel->Run(ev.at);
    const AgentAdmitVerdict verdict = kernel->OnToolCall(ev);
    if (verdict == AgentAdmitVerdict::kAllow && ev.session <= 4) {
      ++admitted[ev.session];
    }
  }
  std::printf("%-22s %-10s %22llu\n", "session-rate (flood)", "throttle",
              static_cast<unsigned long long>(admitted[2]));
  std::printf("%-22s %-10s %22llu\n", "exec-allowlist", "deny",
              static_cast<unsigned long long>(admitted[3]));
  std::printf("%-22s %-10s %22llu\n", "secret-flow (seq)", "kill",
              static_cast<unsigned long long>(admitted[4]));
  std::printf(
      "# the exfiltrating session gets exactly 2 admitted calls: the secret\n"
      "# read and the first send — the ONCHANGE kill lands inside that send's\n"
      "# callout, so no second send ever reaches the network.\n");
}

// (c) governed throughput under a multi-thousand-session storm.
void StormThroughput() {
  std::printf("\n# (c) sustained governed throughput, bursty session storm\n");
  std::printf("%-14s %10s %12s %14s %12s\n", "sessions/s", "sessions", "events",
              "events_per_s", "rejected");
  for (const double rate : {500.0, 2000.0, 4000.0}) {
    SessionWorkloadOptions options;
    options.duration = Seconds(2);
    options.sessions_per_sec = rate;
    options.mean_bursts = 2.0;
    const agent::Harness harness(options, 23);
    uint64_t max_session = 0;
    for (const agent::ToolCallEvent& ev : harness.events()) {
      max_session = std::max(max_session, ev.session);
    }
    auto kernel = MakeKernel(GovernanceSpec());
    const int64_t start = WallNs();
    const agent::DriveResult result = harness.Drive(*kernel);
    const double elapsed_s =
        std::max(static_cast<double>(WallNs() - start) / 1e9, 1e-9);
    std::printf("%-14.0f %10llu %12llu %14.0f %12llu\n", rate,
                static_cast<unsigned long long>(max_session),
                static_cast<unsigned long long>(result.delivered),
                static_cast<double>(result.delivered) / elapsed_s,
                static_cast<unsigned long long>(result.delivered - result.allowed));
  }
}

int Main() {
  Logger::Global().set_level(LogLevel::kOff);
  std::printf("# E11: tool-call governance (osguard::agent)\n");
  AdmissionOverhead();
  CallsToContainment();
  StormThroughput();
  return 0;
}

}  // namespace
}  // namespace osguard

int main() { return osguard::Main(); }
