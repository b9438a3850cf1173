// Policy registry: the substrate for the REPLACE action (A2).
//
// A *policy* is a named decision component (learned or heuristic). A *slot*
// is a decision point in the kernel ("io.submit_predictor",
// "sched.pick_next", "mem.placement") bound to exactly one active policy.
// Subsystems look up their slot's active policy on every decision, so
// REPLACE(old, new) — rebinding every slot whose active policy is `old` to
// `new` — takes effect on the very next decision, which is what gives the
// paper's fallback action its immediacy ("most OS policies rely on limited
// history and state, they are often able to start making decisions
// immediately").

#ifndef SRC_ACTIONS_POLICY_REGISTRY_H_
#define SRC_ACTIONS_POLICY_REGISTRY_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/support/status.h"
#include "src/support/time.h"

namespace osguard {

// Base class for every registered policy. Subsystems define richer
// interfaces (e.g. IoLatencyPolicy) deriving from this.
class Policy {
 public:
  virtual ~Policy() = default;

  // Unique registry name, e.g. "linnos_model" or "heuristic_submit".
  virtual std::string name() const = 0;

  // Learned policies are the ones guardrails exist to regulate; the flag is
  // surfaced in introspection and reports.
  virtual bool is_learned() const { return false; }
};

// One REPLACE event, for auditing (the reproducibility concern in §1).
struct ReplaceEvent {
  std::string slot;
  std::string old_policy;
  std::string new_policy;
  SimTime time = 0;
};

class PolicyRegistry {
 public:
  PolicyRegistry() = default;
  PolicyRegistry(const PolicyRegistry&) = delete;
  PolicyRegistry& operator=(const PolicyRegistry&) = delete;

  // Registers a policy under policy->name(). Names must be unique.
  Status Register(std::shared_ptr<Policy> policy);

  Result<std::shared_ptr<Policy>> Get(const std::string& name) const;

  // Creates or rebinds a slot to a registered policy.
  Status BindSlot(const std::string& slot, const std::string& policy_name);

  // The policy a subsystem should consult right now for `slot`.
  Result<std::shared_ptr<Policy>> Active(const std::string& slot) const;

  // Typed lookup; kFailedPrecondition if the active policy is not a T.
  template <typename T>
  Result<std::shared_ptr<T>> ActiveAs(const std::string& slot) const {
    OSGUARD_ASSIGN_OR_RETURN(std::shared_ptr<Policy> policy, Active(slot));
    auto typed = std::dynamic_pointer_cast<T>(policy);
    if (typed == nullptr) {
      return FailedPreconditionError("policy '" + policy->name() + "' bound to slot '" + slot +
                                     "' has the wrong type");
    }
    return typed;
  }

  // The REPLACE action: rebinds every slot whose active policy is
  // `old_policy` to `new_policy`. Returns the number of slots rebound;
  // kNotFound if `new_policy` is not registered, and 0 rebinds (not an
  // error) if nothing was bound to `old_policy` — REPLACE must be
  // idempotent so a guardrail that fires repeatedly is harmless.
  Result<int> Replace(const std::string& old_policy, const std::string& new_policy,
                      SimTime now);

  std::vector<ReplaceEvent> replace_history() const;
  std::vector<std::string> SlotNames() const;
  size_t policy_count() const;

 private:
  std::unordered_map<std::string, std::shared_ptr<Policy>> policies_;
  std::unordered_map<std::string, std::string> slots_;  // slot -> policy name
  std::vector<ReplaceEvent> history_;
};

}  // namespace osguard

#endif  // SRC_ACTIONS_POLICY_REGISTRY_H_
