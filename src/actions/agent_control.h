// Agent governance control plane: deny / throttle / kill.
//
// The agent guardrail family (specs/agent_governance.osg) corrects through
// the store, following the paper's Listing-2 idiom (SAVE to a control key
// that the governed component consults): a tripped spec SAVEs one of the
// agent.ctl.* keys below, and the kernel's tool-call admission pipeline
// (src/sim/agent_callout) reads them before every call. This module owns
// the key vocabulary so the kernel, the specs, and the tests all agree on
// the semantics (AgentGovernor applies them):
//
//   deny     — agent.ctl.deny.<tool> = true blocks a whole tool class
//              (allowlist enforcement);
//   throttle — agent.ctl.throttle_session = <sid> caps that session to
//              agent.ctl.throttle_limit calls per throttle window
//              (rate-limit enforcement, windowed, self-clearing as the
//              window drains);
//   kill     — agent.ctl.kill_session = <sid> permanently terminates the
//              session: its next call latches agent.s<sid>.killed and every
//              subsequent call is rejected (sequence-property enforcement).
//
// All state lives in the feature store, never in kernel RAM, so the control
// plane inherits crash consistency (persist journal) and warm-restart
// bit-identity for free.

#ifndef SRC_ACTIONS_AGENT_CONTROL_H_
#define SRC_ACTIONS_AGENT_CONTROL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/agent/tool_call.h"

namespace osguard {

// --- Control keys (written by guardrail actions, read at admission) ---

// Prefix for per-tool denials: "agent.ctl.deny.file|net|exec" (bool).
inline constexpr char kAgentCtlDenyPrefix[] = "agent.ctl.deny.";
// Session id currently throttled (int64; 0 / absent = none).
inline constexpr char kAgentCtlThrottleSession[] = "agent.ctl.throttle_session";
// Max calls per throttle window for the throttled session (int64).
inline constexpr char kAgentCtlThrottleLimit[] = "agent.ctl.throttle_limit";
// Throttle window length in milliseconds (int64).
inline constexpr char kAgentCtlThrottleWindowMs[] = "agent.ctl.throttle_window_ms";
// Session id to terminate (int64; 0 / absent = none). Kills are permanent:
// the admission path latches agent.s<sid>.killed on the session's next call.
inline constexpr char kAgentCtlKillSession[] = "agent.ctl.kill_session";

// Defaults when the ctl keys are absent (specs may override via SAVE).
inline constexpr int64_t kAgentThrottleLimitDefault = 8;
inline constexpr int64_t kAgentThrottleWindowMsDefault = 1000;

// "agent.ctl.deny.<tool>" for a tool class.
std::string AgentDenyKey(agent::ToolClass tool);

// "agent.s<sid>.<suffix>" — per-session governance key.
std::string AgentSessionKey(uint64_t session, std::string_view suffix);

// The same keys built in one reused buffer: Reset formats "agent.s<sid>."
// once per session, and Key appends a suffix in place, so a warmed-up
// buffer formats a call's keys without allocating. A returned view is valid
// until the next Reset or Key.
class AgentSessionKeyBuffer {
 public:
  void Reset(uint64_t session);
  std::string_view Key(std::string_view suffix);

 private:
  std::string buffer_;
  size_t prefix_size_ = 0;
};

// --- Admission ---

enum class AgentAdmitVerdict : uint8_t {
  kAllow = 0,
  kDeny = 1,      // tool class denied by allowlist guardrail
  kThrottle = 2,  // session over its throttle budget for this window
  kKill = 3,      // session terminated by kill guardrail
};

const char* AgentAdmitVerdictName(AgentAdmitVerdict verdict);

}  // namespace osguard

#endif  // SRC_ACTIONS_AGENT_CONTROL_H_
