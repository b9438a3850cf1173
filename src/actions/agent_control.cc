#include "src/actions/agent_control.h"

#include <charconv>

namespace osguard {

std::string AgentDenyKey(agent::ToolClass tool) {
  const char* name = agent::ToolClassName(tool);
  return std::string(kAgentCtlDenyPrefix) + (name != nullptr ? name : "invalid");
}

std::string AgentSessionKey(uint64_t session, std::string_view suffix) {
  AgentSessionKeyBuffer buffer;
  buffer.Reset(session);
  return std::string(buffer.Key(suffix));
}

void AgentSessionKeyBuffer::Reset(uint64_t session) {
  char digits[20];  // any uint64_t
  char* end = std::to_chars(digits, digits + sizeof(digits), session).ptr;
  buffer_.assign("agent.s");
  buffer_.append(digits, end);
  buffer_ += '.';
  prefix_size_ = buffer_.size();
}

std::string_view AgentSessionKeyBuffer::Key(std::string_view suffix) {
  buffer_.resize(prefix_size_);
  buffer_.append(suffix);
  return buffer_;
}

const char* AgentAdmitVerdictName(AgentAdmitVerdict verdict) {
  switch (verdict) {
    case AgentAdmitVerdict::kAllow:
      return "allow";
    case AgentAdmitVerdict::kDeny:
      return "deny";
    case AgentAdmitVerdict::kThrottle:
      return "throttle";
    case AgentAdmitVerdict::kKill:
      return "kill";
  }
  return "invalid";
}

}  // namespace osguard
