// The agent tool-call governance domain (docs/AGENT.md), under `ctest -L
// agent`: harness determinism, the trace codec, each guardrail family
// tripping on the scripted incident trace and staying silent on the clean
// trace, the deny/throttle/kill action effects at admission, and the
// off==absent differentials (unarmed agent chaos sites change nothing; a
// kernel that never sees a tool call never interns an agent key).

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/actions/agent_control.h"
#include "src/agent/harness.h"
#include "src/agent/tool_call.h"
#include "src/agent/trace.h"
#include "src/chaos/chaos.h"
#include "src/persist/persist.h"
#include "src/sim/agent_callout.h"
#include "src/sim/kernel.h"
#include "src/support/logging.h"
#include "src/wl/sessiongen.h"

#ifndef OSGUARD_SPECS_DIR
#define OSGUARD_SPECS_DIR "specs"
#endif

namespace osguard {
namespace {

using agent::DriveResult;
using agent::Harness;
using agent::MakeCleanTrace;
using agent::MakeIncidentTrace;
using agent::ReplayTrace;
using agent::ToolCallEvent;
using agent::ToolClass;

std::string ReadSpecFile(const std::string& name) {
  std::ifstream in(std::string(OSGUARD_SPECS_DIR) + "/" + name);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string SnapshotBytes(Kernel& kernel) {
  Snapshot snapshot;
  snapshot.store = kernel.store().DumpSlots();
  snapshot.report_ring = kernel.engine().EncodeReportRing();
  snapshot.image = kernel.engine().EncodeImage();
  return EncodeSnapshot(snapshot);
}

double LoadNum(Kernel& kernel, const char* key) {
  return kernel.store().LoadOr(key, Value(int64_t{0})).NumericOr(0.0);
}

class AgentTest : public ::testing::Test {
 protected:
  AgentTest() { Logger::Global().set_level(LogLevel::kOff); }
};

// --- Harness determinism ---

TEST_F(AgentTest, GeneratorIsSeedDeterministic) {
  SessionWorkloadOptions options;
  options.duration = Seconds(2);
  options.sessions_per_sec = 50.0;
  Harness a(options, 42);
  Harness b(options, 42);
  ASSERT_FALSE(a.events().empty());
  EXPECT_EQ(a.events(), b.events());
  Harness c(options, 43);
  EXPECT_NE(a.events(), c.events());
  // Time-ordered, nonzero sessions — the stream is a valid trace timeline.
  SimTime prev = 0;
  for (const ToolCallEvent& ev : a.events()) {
    EXPECT_GE(ev.at, prev);
    EXPECT_NE(ev.session, 0u);
    prev = ev.at;
  }
}

TEST_F(AgentTest, GeneratorCoversToolMixAndManySessions) {
  SessionWorkloadOptions options;
  options.duration = Seconds(10);
  options.sessions_per_sec = 300.0;  // thousands of concurrent sessions
  options.secret_fraction = 0.05;
  Harness h(options, 7);
  uint64_t tools[agent::kToolClassCount] = {};
  uint64_t secrets = 0;
  uint64_t max_session = 0;
  for (const ToolCallEvent& ev : h.events()) {
    ++tools[static_cast<int>(ev.tool)];
    secrets += ev.secret ? 1 : 0;
    max_session = std::max(max_session, ev.session);
  }
  EXPECT_GT(max_session, 2000u);
  for (int i = 0; i < agent::kToolClassCount; ++i) {
    EXPECT_GT(tools[i], 0u) << "tool " << i;
  }
  EXPECT_GT(secrets, 0u);
}

// --- Trace codec ---

TEST_F(AgentTest, TraceRoundTrips) {
  SessionWorkloadOptions options;
  options.duration = Seconds(1);
  Harness h(options, 11);
  const std::string text = agent::EncodeTrace(h.events());
  auto decoded = agent::DecodeTrace(text);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value(), h.events());
}

TEST_F(AgentTest, TraceDecoderRejectsMalformedInput) {
  const char* bad[] = {
      "1,2,file,3",                    // too few fields
      "1,2,file,3,0,9",                // too many fields
      "x,2,file,3,0",                  // bad timestamp
      "-5,2,file,3,0",                 // negative timestamp
      "1,0,file,3,0",                  // zero session
      "1,2,teleport,3,0",              // unknown tool
      "1,2,file,zz,0",                 // bad fingerprint
      "1,2,file,3,2",                  // bad secret flag
      "5,2,file,3,0\n4,2,file,3,0",    // decreasing timestamps
  };
  for (const char* text : bad) {
    auto result = agent::DecodeTrace(text);
    EXPECT_FALSE(result.ok()) << text;
  }
  // Comments, blank lines, CRLF: accepted.
  auto ok = agent::DecodeTrace("# header\r\n\r\n1,2,exec,3,1\r\n");
  ASSERT_TRUE(ok.ok());
  ASSERT_EQ(ok.value().size(), 1u);
  EXPECT_EQ(ok.value()[0].tool, ToolClass::kExec);
  EXPECT_TRUE(ok.value()[0].secret);
}

// --- Guardrail families on scripted traces ---

TEST_F(AgentTest, IncidentTraceTripsAllThreeFamilies) {
  Kernel kernel;
  ASSERT_TRUE(kernel.LoadGuardrails(ReadSpecFile("agent_governance.osg")).ok());
  const auto trace = MakeIncidentTrace();
  const DriveResult result = ReplayTrace(kernel, trace);
  EXPECT_EQ(result.delivered, trace.size());

  // Family 1 (rate limits): the flood session (2) got throttled; the global
  // rate spec reported.
  EXPECT_EQ(LoadNum(kernel, kAgentCtlThrottleSession), 2.0);
  EXPECT_GT(LoadNum(kernel, kAgentKeyGovThrottled), 100.0);
  EXPECT_GT(result.throttled, 100u);
  EXPECT_GE(kernel.engine().reporter().CountFor("agent-session-rate"), 1u);
  EXPECT_GE(kernel.engine().reporter().CountFor("agent-global-rate"), 1u);

  // Family 2 (allowlist): the first exec call tripped the spec within its
  // own callout; the remaining two were denied at admission.
  EXPECT_EQ(kernel.store().LoadOr("agent.ctl.deny.exec", Value(false))
                .AsBool().value_or(false),
            true);
  EXPECT_EQ(LoadNum(kernel, "agent.calls.exec"), 1.0);
  EXPECT_EQ(result.denied, 2u);
  EXPECT_GE(kernel.engine().reporter().CountFor("agent-exec-allowlist"), 1u);

  // Family 3 (sequence): the first tainted network send killed session 4
  // synchronously — within the violating event's own callout — so both
  // later sends were rejected.
  EXPECT_EQ(LoadNum(kernel, kAgentCtlKillSession), 4.0);
  EXPECT_EQ(LoadNum(kernel, kAgentKeyTaintNetAfterSecret), 1.0);
  EXPECT_EQ(kernel.store()
                .LoadOr(AgentSessionKey(4, "killed"), Value(false))
                .AsBool().value_or(false),
            true);
  EXPECT_EQ(result.killed, 2u);
  EXPECT_EQ(LoadNum(kernel, kAgentKeyGovKilled), 1.0);
  EXPECT_GE(kernel.engine().reporter().CountFor("agent-secret-flow"), 1u);
}

TEST_F(AgentTest, CleanTraceTripsNothing) {
  Kernel kernel;
  ASSERT_TRUE(kernel.LoadGuardrails(ReadSpecFile("agent_governance.osg")).ok());
  const auto trace = MakeCleanTrace();
  const DriveResult result = ReplayTrace(kernel, trace);
  EXPECT_EQ(result.allowed, trace.size());
  EXPECT_EQ(result.denied + result.throttled + result.killed, 0u);
  // Zero false trips: not a single report from any agent guardrail, and no
  // control key ever written (absent, not merely 0) — even though session 1
  // read a secret (taint alone is not a violation).
  EXPECT_EQ(kernel.engine().reporter().total_reports(), 0u);
  EXPECT_FALSE(kernel.store().Contains(kAgentCtlThrottleSession));
  EXPECT_FALSE(kernel.store().Contains(kAgentCtlKillSession));
  EXPECT_FALSE(kernel.store().Contains("agent.ctl.deny.exec"));
  EXPECT_EQ(LoadNum(kernel, kAgentKeyTaintSessions), 1.0);
  EXPECT_EQ(LoadNum(kernel, kAgentKeyTaintNetAfterSecret), 0.0);
  EXPECT_EQ(LoadNum(kernel, kAgentKeySessions), 6.0);
  EXPECT_EQ(LoadNum(kernel, kAgentKeyEvents), static_cast<double>(trace.size()));
}

TEST_F(AgentTest, NetFingerprintOutsideBandKillsTheSession) {
  Kernel kernel;
  ASSERT_TRUE(kernel.LoadGuardrails(ReadSpecFile("agent_governance.osg")).ok());
  // A net call whose fingerprint exceeds the catalogued 32-bit band trips
  // family 2b within its own callout: the kill control key is set before
  // OnToolCall returns, so the session's *next* call is already rejected.
  EXPECT_EQ(kernel.OnToolCall({Milliseconds(1), 9, ToolClass::kNet,
                               uint64_t{1} << 40, false}),
            AgentAdmitVerdict::kAllow);
  EXPECT_EQ(LoadNum(kernel, kAgentCtlKillSession), 9.0);
  EXPECT_GE(kernel.engine().reporter().CountFor("agent-net-fingerprint"), 1u);
  EXPECT_EQ(kernel.OnToolCall({Milliseconds(2), 9, ToolClass::kNet, 7, false}),
            AgentAdmitVerdict::kKill);
  EXPECT_EQ(kernel.store()
                .LoadOr(AgentSessionKey(9, "killed"), Value(false))
                .AsBool().value_or(false),
            true);
  EXPECT_EQ(LoadNum(kernel, kAgentKeyGovKilled), 1.0);

  // Fingerprints are published as the signed cast of the raw 64-bit hash:
  // a top-bit-set hash surfaces as a negative value and trips the >= 0
  // clause, killing a second offender independently of the first.
  EXPECT_EQ(kernel.OnToolCall({Milliseconds(3), 10, ToolClass::kNet,
                               uint64_t{1} << 63, false}),
            AgentAdmitVerdict::kAllow);
  EXPECT_EQ(LoadNum(kernel, kAgentCtlKillSession), 10.0);
  EXPECT_EQ(kernel.OnToolCall({Milliseconds(4), 10, ToolClass::kNet, 8, false}),
            AgentAdmitVerdict::kKill);
  EXPECT_GE(kernel.engine().reporter().CountFor("agent-net-fingerprint"), 2u);
  EXPECT_EQ(LoadNum(kernel, kAgentKeyGovKilled), 2.0);
}

TEST_F(AgentTest, FingerprintBandOnlyConstrainsNetworkCalls) {
  Kernel kernel;
  ASSERT_TRUE(kernel.LoadGuardrails(ReadSpecFile("agent_governance.osg")).ok());
  // File and exec fingerprints are uncatalogued hashes over paths/argv —
  // out-of-band values there are normal and must not trip the net family.
  EXPECT_EQ(kernel.OnToolCall({Milliseconds(1), 3, ToolClass::kFile,
                               uint64_t{1} << 40, false}),
            AgentAdmitVerdict::kAllow);
  EXPECT_EQ(kernel.OnToolCall({Milliseconds(2), 3, ToolClass::kExec,
                               uint64_t{1} << 63, false}),
            AgentAdmitVerdict::kAllow);
  // A net call inside the band — including both edges — is vetted traffic.
  EXPECT_EQ(kernel.OnToolCall({Milliseconds(3), 3, ToolClass::kNet, 0, false}),
            AgentAdmitVerdict::kAllow);
  EXPECT_EQ(kernel.OnToolCall({Milliseconds(4), 3, ToolClass::kNet,
                               uint64_t{4294967295}, false}),
            AgentAdmitVerdict::kAllow);
  EXPECT_EQ(kernel.engine().reporter().CountFor("agent-net-fingerprint"), 0u);
  EXPECT_EQ(LoadNum(kernel, kAgentCtlKillSession), 0.0);
  EXPECT_EQ(kernel.OnToolCall({Milliseconds(5), 3, ToolClass::kNet, 5, false}),
            AgentAdmitVerdict::kAllow);
}

// --- Action effects at admission (no specs: control keys set directly) ---

TEST_F(AgentTest, DenyControlKeyRejectsToolClass) {
  Kernel kernel;
  kernel.store().Save(AgentDenyKey(ToolClass::kNet), Value(true));
  EXPECT_EQ(kernel.OnToolCall({Milliseconds(1), 1, ToolClass::kNet, 1, false}),
            AgentAdmitVerdict::kDeny);
  EXPECT_EQ(kernel.OnToolCall({Milliseconds(2), 1, ToolClass::kFile, 2, false}),
            AgentAdmitVerdict::kAllow);
  EXPECT_EQ(LoadNum(kernel, kAgentKeyGovDenied), 1.0);
  // Denied calls are not published.
  EXPECT_EQ(LoadNum(kernel, kAgentKeyEvents), 1.0);
}

TEST_F(AgentTest, ThrottleCapsPerWindowAndDrains) {
  Kernel kernel;
  kernel.store().Save(kAgentCtlThrottleSession, Value(int64_t{7}));
  // Default budget: 8 calls per 1s window.
  for (int i = 0; i < 12; ++i) {
    const auto verdict = kernel.OnToolCall(
        {Milliseconds(10 * (i + 1)), 7, ToolClass::kFile,
         static_cast<uint64_t>(i), false});
    EXPECT_EQ(verdict, i < kAgentThrottleLimitDefault
                           ? AgentAdmitVerdict::kAllow
                           : AgentAdmitVerdict::kThrottle)
        << "call " << i;
  }
  // An unthrottled session is untouched.
  EXPECT_EQ(kernel.OnToolCall({Milliseconds(130), 8, ToolClass::kFile, 99, false}),
            AgentAdmitVerdict::kAllow);
  // After the window drains the throttled session may call again.
  kernel.Run(Seconds(3));
  EXPECT_EQ(kernel.OnToolCall({Seconds(3), 7, ToolClass::kFile, 100, false}),
            AgentAdmitVerdict::kAllow);
  EXPECT_EQ(LoadNum(kernel, kAgentKeyGovThrottled), 4.0);
}

TEST_F(AgentTest, KillControlKeyIsPermanent) {
  Kernel kernel;
  kernel.store().Save(kAgentCtlKillSession, Value(int64_t{5}));
  EXPECT_EQ(kernel.OnToolCall({Milliseconds(1), 5, ToolClass::kFile, 1, false}),
            AgentAdmitVerdict::kKill);
  // The latch outlives the control key: even after it is redirected to
  // another session, session 5 stays dead.
  kernel.store().Save(kAgentCtlKillSession, Value(int64_t{0}));
  EXPECT_EQ(kernel.OnToolCall({Milliseconds(2), 5, ToolClass::kNet, 2, false}),
            AgentAdmitVerdict::kKill);
  EXPECT_EQ(LoadNum(kernel, kAgentKeyGovKilled), 1.0);  // counted once
  EXPECT_EQ(kernel.OnToolCall({Milliseconds(3), 6, ToolClass::kNet, 3, false}),
            AgentAdmitVerdict::kAllow);
}

// --- Determinism through the full kernel ---

TEST_F(AgentTest, ReplayIsBitIdentical) {
  SessionWorkloadOptions options;
  options.duration = Seconds(2);
  options.sessions_per_sec = 80.0;
  options.secret_fraction = 0.05;
  Harness harness(options, 1234);
  std::string first;
  for (int round = 0; round < 2; ++round) {
    Kernel kernel;
    ASSERT_TRUE(
        kernel.LoadGuardrails(ReadSpecFile("agent_governance.osg")).ok());
    harness.Drive(kernel);
    kernel.Run(Seconds(3));
    const std::string bytes = SnapshotBytes(kernel);
    if (round == 0) {
      first = bytes;
    } else {
      EXPECT_EQ(first, bytes);
    }
  }
}

// --- Off == absent differentials ---

TEST_F(AgentTest, UnarmedAgentChaosSitesChangeNothing) {
  SessionWorkloadOptions options;
  options.duration = Seconds(1);
  Harness harness(options, 99);
  auto run = [&](bool attach_chaos) {
    Kernel kernel;
    ChaosEngine chaos(555);
    if (attach_chaos) {
      kernel.AttachChaos(&chaos);  // registers agent.* sites, leaves them off
    }
    EXPECT_TRUE(
        kernel.LoadGuardrails(ReadSpecFile("agent_governance.osg")).ok());
    harness.Drive(kernel);
    return SnapshotBytes(kernel);
  };
  EXPECT_EQ(run(false), run(true));
}

TEST_F(AgentTest, NoToolCallsMeansNoAgentKeys) {
  // A kernel that never sees a tool call must not intern a single agent.*
  // key or evaluate anything agent-related: the domain is pay-as-you-go.
  Kernel kernel;
  kernel.store().Observe("io.lat", Milliseconds(1), 100.0);
  kernel.Callout("submit_io");
  kernel.Run(Seconds(1));
  for (size_t id = 0; id < kernel.store().key_count(); ++id) {
    EXPECT_EQ(kernel.store().KeyName(static_cast<KeyId>(id)).rfind("agent.", 0),
              std::string::npos);
  }
}

// --- Chaos sites ---

TEST_F(AgentTest, EventDropLosesEventsDeterministically) {
  SessionWorkloadOptions options;
  options.duration = Seconds(1);
  Harness harness(options, 321);
  auto run = [&](const char* chaos_spec) {
    Kernel kernel;
    ChaosEngine chaos(777);
    kernel.AttachChaos(&chaos);
    EXPECT_TRUE(
        kernel.LoadGuardrails(ReadSpecFile("agent_governance.osg")).ok());
    if (chaos_spec != nullptr) {
      EXPECT_TRUE(kernel.LoadGuardrails(chaos_spec).ok());
    }
    harness.Drive(kernel);
    return std::make_pair(LoadNum(kernel, kAgentKeyEvents),
                          SnapshotBytes(kernel));
  };
  constexpr char kDropAll[] =
      "chaos { site agent.event_drop { mode = bernoulli, p = 1.0 } }";
  constexpr char kDropSome[] =
      "chaos { site agent.event_drop { mode = bernoulli, p = 0.3 } }";
  const auto baseline = run(nullptr);
  const auto all = run(kDropAll);
  EXPECT_EQ(all.first, 0.0);  // every event lost before admission
  const auto some_a = run(kDropSome);
  const auto some_b = run(kDropSome);
  EXPECT_GT(some_a.first, 0.0);
  EXPECT_LT(some_a.first, baseline.first);
  EXPECT_EQ(some_a.second, some_b.second);  // bit-identical replay
}

TEST_F(AgentTest, DupSessionDeliversGhostTwin) {
  Kernel kernel;
  ChaosEngine chaos(42);
  kernel.AttachChaos(&chaos);
  ASSERT_TRUE(
      kernel
          .LoadGuardrails(
              "chaos { site agent.dup_session { mode = bernoulli, p = 1.0 } }")
          .ok());
  kernel.OnToolCall({Milliseconds(1), 3, ToolClass::kFile, 1, false});
  // Both the original and its ghost twin were admitted and published.
  EXPECT_EQ(LoadNum(kernel, kAgentKeyEvents), 2.0);
  EXPECT_EQ(LoadNum(kernel, kAgentKeySessions), 2.0);
  const uint64_t ghost = 3ull ^ kAgentGhostSessionXor;
  EXPECT_TRUE(kernel.store().Contains(AgentSessionKey(ghost, "seen")));
}

// --- Reboot safety ---

TEST_F(AgentTest, ColdRebootForgetsGovernanceState) {
  Kernel kernel;
  ASSERT_TRUE(kernel.LoadGuardrails(ReadSpecFile("agent_governance.osg")).ok());
  ReplayTrace(kernel, MakeIncidentTrace());
  EXPECT_GT(LoadNum(kernel, kAgentKeyEvents), 0.0);
  kernel.Panic();
  auto recovery = kernel.Reboot();
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery.value().cold_start);
  // No persist manager: governance state is gone, and the callout path
  // still works against the rebuilt engine (no stale cached ids anywhere).
  EXPECT_EQ(LoadNum(kernel, kAgentKeyEvents), 0.0);
  EXPECT_EQ(kernel.OnToolCall({Seconds(5), 4, ToolClass::kNet, 9, false}),
            AgentAdmitVerdict::kAllow);
  EXPECT_EQ(LoadNum(kernel, kAgentKeyEvents), 1.0);
}

}  // namespace
}  // namespace osguard
