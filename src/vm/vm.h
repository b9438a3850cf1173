// Interpreter for verified monitor programs.
//
// The VM is deliberately boring: verified programs are DAGs, so execution is
// a single forward pass over at most kMaxInstructions instructions. All
// interaction with the outside world happens through the HelperContext, which
// the runtime binds to the feature store and the action dispatcher. Helper
// failures and arithmetic faults (division by zero) surface as a clean
// kExecutionError — the monitor misfires, the kernel does not crash.

#ifndef SRC_VM_VM_H_
#define SRC_VM_VM_H_

#include <array>
#include <cstdint>
#include <span>

#include "src/store/value.h"
#include "src/support/status.h"
#include "src/support/time.h"
#include "src/vm/bytecode.h"

namespace osguard {

// The VM's window to the world. One implementation lives in the runtime
// (bound to FeatureStore + ActionDispatcher); tests use lightweight fakes.
class HelperContext {
 public:
  virtual ~HelperContext() = default;

  // Invokes helper `id` with `args`. Must tolerate any argument values the
  // verifier admits (arity is pre-checked; types are not).
  virtual Result<Value> CallHelper(HelperId id, std::span<const Value> args) = 0;

  // Keyed variant used by kCallKeyed: `key` is the constant key argument,
  // `slot` the feature-store slot id Engine::Load resolved for it, and
  // `rest` the arguments after the key. Contexts that can exploit the slot
  // override this; the default ignores the hint (and copies the arguments
  // into one list for CallHelper), so a stale or foreign slot id can never
  // change behavior — only speed.
  virtual Result<Value> CallHelperKeyed(HelperId id, uint32_t slot, const Value& key,
                                        std::span<const Value> rest);

  // Current simulated time, for the NOW() helper.
  virtual SimTime now() const = 0;
};

// Canonical truthiness used by the VM and the engine: nil and zero are
// false; non-empty strings/lists are true.
bool TruthyValue(const Value& value);

struct ExecStats {
  int64_t insns_executed = 0;
  int64_t helper_calls = 0;
  int64_t budget_aborts = 0;  // executions killed by their max_steps cap
};

class Vm {
 public:
  // `program` must have passed Verify(); Execute still performs cheap bounds
  // checks as defense in depth but assumes structural validity.
  //
  // `max_steps` is the supervisor's kill switch: it caps executed
  // instructions below the structural kMaxInstructions bound (0 = no cap).
  // Going past the structural bound is an ordinary kExecutionError; going
  // past the cap returns kResourceExhausted, so the caller can count it as a
  // budget abort. Both count instructions, never host time, so an abort
  // replays exactly.
  Result<Value> Execute(const Program& program, HelperContext& context, int64_t max_steps = 0);

  // Cumulative statistics across Execute calls (monitor-overhead accounting
  // for property P5).
  const ExecStats& stats() const { return stats_; }
  void ResetStats() { stats_ = ExecStats{}; }

 private:
  ExecStats stats_;

  // Scratch register file reused across Execute calls so the hot path does
  // not construct/destruct 64 Values per evaluation. A Vm is not thread-safe;
  // re-entrant Execute calls (a helper evaluating another program on the same
  // Vm) fall back to a heap-allocated register file, so reuse is a pure
  // optimization, never a correctness hazard.
  std::array<Value, kMaxRegisters> scratch_regs_;
  bool scratch_in_use_ = false;
};

}  // namespace osguard

#endif  // SRC_VM_VM_H_
