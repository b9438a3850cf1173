// The agent tool-call callout domain (docs/AGENT.md).
//
// Kernel::OnToolCall delivers one instrumented agent tool call; this module
// is the governance path it runs through:
//
//   chaos (event_drop / dup_session)        — Kernel::OnToolCall
//     -> admission (deny / throttle / kill) — AgentGovernor::Process,
//        reading the agent.ctl.* control keys guardrail actions SAVE
//     -> feature publication                — AgentGovernor::Process,
//        per-session windowed call rates, per-tool counters, the
//        secret-read taint bit, and the taint->network sequence counter
//     -> engine callout                     — Callout("agent.tool_call"),
//        firing FUNCTION monitors and committing a persist frame
//
// Every piece of governance state lives in the feature store, never in
// kernel RAM: publication is expressed entirely through Save / Increment /
// Observe, so crash consistency (persist journal) and bit-identical replay
// fall out of the existing infrastructure. What the governor object holds
// besides configuration and chaos site ids is a cache of KeyIds:
//
//   * global agent.* keys — interned at their first write (so the interning
//     order is the store's own) and pinned, so no reclamation can recycle a
//     cached slot; the agent.ctl.* keys specs write are cached and pinned
//     once they exist. Kernel::ColdBoot resets the store and calls
//     ForgetKeyIds, so no id outlives the store it came from.
//   * per-session keys (agent.s<sid>.*) — formatted into one reused buffer
//     and resolved once per call. They stay unpinned (retention governs
//     them) and the ids are dropped when the call returns; nothing
//     reclaims mid-call except the kill path, which returns right after.
//
// Either way a call performs the same store operations, in the same order,
// as string-keyed access would.
//
// Sequence property support: on a secret file read the governor sets the
// session's taint bit; on a network call from a tainted session it SAVEs
// agent.taint.last_session *then* increments agent.taint.net_after_secret.
// External store writes dispatch ONCHANGE monitors synchronously, so a
// "no network send after reading secrets" spec watching the counter runs
// (and kills the offender via agent.ctl.kill_session) before OnToolCall
// even returns — the session's next call is already rejected.

#ifndef SRC_SIM_AGENT_CALLOUT_H_
#define SRC_SIM_AGENT_CALLOUT_H_

#include <array>
#include <cstdint>

#include "src/actions/agent_control.h"
#include "src/agent/tool_call.h"
#include "src/chaos/chaos.h"
#include "src/store/feature_store.h"
#include "src/support/time.h"

namespace osguard {

// --- Published feature keys (read side for specs) ---

// Monotone count of accepted tool calls.
inline constexpr char kAgentKeyEvents[] = "agent.events";
// Count of distinct sessions that made at least one accepted call.
inline constexpr char kAgentKeySessions[] = "agent.sessions";
// Global accepted-call time series (windowed rate limits aggregate this).
inline constexpr char kAgentKeyCallsStream[] = "agent.calls.stream";
// Per-tool accepted-call counters: "agent.calls.file|net|exec".
inline constexpr char kAgentKeyCallsPrefix[] = "agent.calls.";
// Windowed call count of the session that made the latest accepted call;
// agent.rate.session (written first) names that session. ONCHANGE watchers
// of agent.rate.current see a consistent (session, count) pair.
inline constexpr char kAgentKeyRateCurrent[] = "agent.rate.current";
inline constexpr char kAgentKeyRateSession[] = "agent.rate.session";
// Latest accepted call: session id, tool class ordinal, fingerprint.
inline constexpr char kAgentKeyLastSession[] = "agent.last.session";
inline constexpr char kAgentKeyLastTool[] = "agent.last.tool";
inline constexpr char kAgentKeyLastFingerprint[] = "agent.last.fingerprint";
// Count of sessions whose taint bit was ever set (secret file reads).
inline constexpr char kAgentKeyTaintSessions[] = "agent.taint.sessions";
// Sequence-property pair: the offender id is written *before* the counter
// increments, so the ONCHANGE watcher reads a consistent offender.
inline constexpr char kAgentKeyTaintLastSession[] = "agent.taint.last_session";
inline constexpr char kAgentKeyTaintNetAfterSecret[] = "agent.taint.net_after_secret";
// Admission outcome counters.
inline constexpr char kAgentKeyGovDenied[] = "agent.gov.denied";
inline constexpr char kAgentKeyGovThrottled[] = "agent.gov.throttled";
inline constexpr char kAgentKeyGovKilled[] = "agent.gov.killed";
inline constexpr char kAgentKeyGovRejected[] = "agent.gov.rejected";

// The instrumented function name FUNCTION monitors hook.
inline constexpr char kAgentCalloutFunction[] = "agent.tool_call";

// Ghost-session derivation for agent.dup_session (see chaos.h).
inline constexpr uint64_t kAgentGhostSessionXor = 0x8000000000000000ull;

// The live slots of the keys the governor writes for one session: calls,
// seen, taint, file, net, exec and killed.
struct AgentSessionSlots {
  std::array<KeyId, 7> ids{};
  size_t count = 0;  // ids[0, count) are live, in ascending slot order
};

// Admission + publication for one tool call. Owned by the Kernel; borrows
// the store. Deterministic: output state is a pure function of (store
// state, event, now).
class AgentGovernor {
 public:
  explicit AgentGovernor(FeatureStore* store) : store_(store) { ForgetKeyIds(); }

  // Registers the chaos sites (null detaches). Site ids are stable for the
  // chaos engine's lifetime, so re-attaching after Kernel::Reboot is cheap.
  void SetChaos(ChaosEngine* chaos);
  ChaosSiteId drop_site() const { return drop_site_; }
  ChaosSiteId dup_site() const { return dup_site_; }

  // When set (the kernel sets it iff the loaded specs carry a retention
  // block), the first kill of a session eagerly reclaims its per-session
  // data keys — calls/seen/taint and the per-tool counters — so a killed
  // session stops holding store slots immediately instead of waiting for
  // the idle TTL. The "killed" latch itself is KEPT: admission reads it to
  // reject the session's future calls.
  void set_reclaim_on_kill(bool on) { reclaim_on_kill_ = on; }
  bool reclaim_on_kill() const { return reclaim_on_kill_; }

  // Runs admission and, when admitted, publishes the call's features.
  // Does NOT fire the engine callout — the Kernel does that, so the
  // governor stays engine-agnostic. `event.tool` must be a valid class.
  AgentAdmitVerdict Process(const agent::ToolCallEvent& event, SimTime now);

  // Finds the session's keys by name (session teardown). O(keys of the
  // session): no scan of the store.
  AgentSessionSlots FindSessionKeys(uint64_t session);

  // Drops every cached KeyId. Required whenever the store is Reset().
  void ForgetKeyIds() { global_ids_.fill(kInvalidKeyId); }

 private:
  // The global keys the governor writes (first group) or reads (agent.ctl.*).
  // Per-tool entries are consecutive in agent::ToolClass order.
  enum GlobalKey : uint8_t {
    kEvents,
    kSessions,
    kCallsStream,
    kCallsFile,
    kCallsNet,
    kCallsExec,
    kRateSession,
    kRateCurrent,
    kLastSession,
    kLastTool,
    kLastFingerprint,
    kTaintSessions,
    kTaintLastSession,
    kTaintNetAfterSecret,
    kGovDenied,
    kGovThrottled,
    kGovKilled,
    kGovRejected,
    kCtlKillSession,
    kCtlDenyFile,
    kCtlDenyNet,
    kCtlDenyExec,
    kCtlThrottleSession,
    kCtlThrottleLimit,
    kCtlThrottleWindowMs,
    kGlobalKeyCount,
  };
  // Per-session key suffixes; kFile..kExec follow agent::ToolClass order.
  enum SessionKey : uint8_t {
    kCalls,
    kSeen,
    kTaint,
    kFile,
    kNet,
    kExec,
    kKilled,
    kSessionKeyCount,
  };

  // Cached id of a global key: WriteId interns and pins it (call it right
  // before the first write, so interning order is unchanged); ReadId finds
  // it, kInvalidKeyId (read as absent) while it does not exist.
  KeyId WriteId(GlobalKey key);
  KeyId ReadId(GlobalKey key);
  // This call's id of a per-session key. Absent keys are looked up again on
  // every use (a write may have created them since); `create` interns.
  KeyId SessionId(SessionKey key, bool create);
  // The deny / throttle / kill decision (read-only).
  AgentAdmitVerdict Admit(const agent::ToolCallEvent& event, SimTime now);

  FeatureStore* store_;
  ChaosEngine* chaos_ = nullptr;
  ChaosSiteId drop_site_ = kInvalidChaosSite;
  ChaosSiteId dup_site_ = kInvalidChaosSite;
  bool reclaim_on_kill_ = false;
  std::array<KeyId, kGlobalKeyCount> global_ids_{};
  AgentSessionKeyBuffer session_keys_;
  std::array<KeyId, kSessionKeyCount> session_ids_{};
};

}  // namespace osguard

#endif  // SRC_SIM_AGENT_CALLOUT_H_
