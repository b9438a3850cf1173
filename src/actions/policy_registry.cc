#include "src/actions/policy_registry.h"

#include <algorithm>

namespace osguard {

Status PolicyRegistry::Register(std::shared_ptr<Policy> policy) {
  if (policy == nullptr) {
    return InvalidArgumentError("cannot register a null policy");
  }
  const std::string name = policy->name();
  if (name.empty()) {
    return InvalidArgumentError("policy name must not be empty");
  }
  if (!policies_.emplace(name, std::move(policy)).second) {
    return AlreadyExistsError("policy '" + name + "' is already registered");
  }
  return OkStatus();
}

Result<std::shared_ptr<Policy>> PolicyRegistry::Get(const std::string& name) const {
  auto it = policies_.find(name);
  if (it == policies_.end()) {
    return NotFoundError("no policy named '" + name + "'");
  }
  return it->second;
}

Status PolicyRegistry::BindSlot(const std::string& slot, const std::string& policy_name) {
  if (policies_.count(policy_name) == 0) {
    return NotFoundError("cannot bind slot '" + slot + "': no policy named '" + policy_name +
                         "'");
  }
  slots_[slot] = policy_name;
  return OkStatus();
}

Result<std::shared_ptr<Policy>> PolicyRegistry::Active(const std::string& slot) const {
  auto it = slots_.find(slot);
  if (it == slots_.end()) {
    return NotFoundError("no slot named '" + slot + "'");
  }
  auto policy_it = policies_.find(it->second);
  if (policy_it == policies_.end()) {
    return InternalError("slot '" + slot + "' is bound to unregistered policy '" + it->second +
                         "'");
  }
  return policy_it->second;
}

Result<int> PolicyRegistry::Replace(const std::string& old_policy,
                                    const std::string& new_policy, SimTime now) {
  if (policies_.count(new_policy) == 0) {
    return NotFoundError("REPLACE: no policy named '" + new_policy + "'");
  }
  int rebound = 0;
  for (auto& [slot, active] : slots_) {
    if (active == old_policy) {
      active = new_policy;
      history_.push_back(ReplaceEvent{slot, old_policy, new_policy, now});
      ++rebound;
    }
  }
  return rebound;
}

std::vector<ReplaceEvent> PolicyRegistry::replace_history() const {
  return history_;
}

std::vector<std::string> PolicyRegistry::SlotNames() const {
  std::vector<std::string> names;
  names.reserve(slots_.size());
  for (const auto& [slot, policy] : slots_) {
    names.push_back(slot);
  }
  std::sort(names.begin(), names.end());
  return names;
}

size_t PolicyRegistry::policy_count() const {
  return policies_.size();
}

}  // namespace osguard
