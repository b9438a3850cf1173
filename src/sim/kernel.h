// The simulated kernel: the composition root.
//
// Owns the feature store, policy registry, event queue, and guardrail
// engine, and exposes the two integration points the paper's framework
// needs from a kernel:
//
//   * time flow   — Run(t) pumps the event queue and the engine's TIMER
//                   triggers in a single interleaved timeline;
//   * callouts    — Callout("fn") marks an instrumented kernel function so
//                   FUNCTION-triggered monitors fire at the right spot.
//
// Subsystems (block layer, scheduler, memory) receive a Kernel& and use its
// store/registry/queue; they never talk to the engine directly.

#ifndef SRC_SIM_KERNEL_H_
#define SRC_SIM_KERNEL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/actions/agent_control.h"
#include "src/actions/task_control.h"
#include "src/agent/tool_call.h"
#include "src/chaos/chaos.h"
#include "src/persist/persist.h"
#include "src/runtime/engine.h"
#include "src/sim/agent_callout.h"
#include "src/sim/event_queue.h"
#include "src/store/feature_store.h"

namespace osguard {

class Kernel {
 public:
  explicit Kernel(EngineOptions engine_options = {});

  // Registers the task-control implementation (usually the scheduler) for
  // DEPRIORITIZE. Must be called before guardrails that use A4 fire; the
  // engine falls back to a recording stub otherwise.
  // NOTE: construction-order constraint — the engine binds task control at
  // construction, so the Kernel constructor wires a forwarding shim and this
  // call just retargets it.
  void SetTaskControl(TaskControl* task_control) { task_control_shim_.target = task_control; }

  // Attaches the fault-injection engine (borrowed; null detaches). Forwards
  // to the guardrail engine (callout drop/delay, helper and dispatch
  // failures) and exposes the pointer so subsystems built on this kernel
  // (block layer, devices) can pick it up. Attach before constructing
  // subsystems, or re-attach them yourself.
  void AttachChaos(ChaosEngine* chaos) {
    chaos_ = chaos;
    engine_->SetChaos(chaos);
    agent_governor_.SetChaos(chaos);
  }
  ChaosEngine* chaos() { return chaos_; }

  // --- Crash consistency (osguard::persist) ---

  // Attaches the persist manager (borrowed; null detaches). The engine
  // commits a journal frame at every callout boundary from here on; call
  // before LoadGuardrails so the spec-level `persist { }` block can
  // configure the manager. Survives Reboot(): the recreated engine is
  // re-wired automatically.
  void AttachPersist(PersistManager* persist);
  PersistManager* persist() { return persist_; }

  // Schedules a kernel panic at simulated time `at` (clamped to now like any
  // event). The panic fires between queue events: pending work is dropped on
  // the floor exactly as a real panic drops in-flight I/O.
  void SchedulePanicAt(SimTime at);

  // Panics immediately: drops every pending event and freezes the kernel.
  // Run() becomes a no-op until Reboot(). Guardrail state that reached a
  // commit boundary is on disk (if a persist manager is attached);
  // everything since is lost — that is the crash model.
  void Panic();
  bool panicked() const { return panicked_; }

  // Simulated warm restart. Resets the feature store (interning order is
  // deliberately forgotten — honest crash semantics), recreates the engine,
  // reloads every previously loaded guardrail spec, and — when a persist
  // manager is attached — recovers the committed state via
  // Engine::Restore. Degrades gracefully: if the warm restart fails the
  // kernel comes back cold (empty state, specs loaded) and the failure is
  // reported in RecoveryInfo::detail rather than as an error. Errors are
  // real spec-reload failures only. The simulated clock keeps running
  // across the reboot, as wall clocks do.
  Result<RecoveryInfo> Reboot();

  FeatureStore& store() { return store_; }
  PolicyRegistry& registry() { return registry_; }
  EventQueue& queue() { return queue_; }
  Engine& engine() { return *engine_; }
  SimTime now() const { return queue_.now(); }

  // Loads guardrail specs (DSL source) into the engine. Successfully loaded
  // sources are remembered so Reboot() can reload them, mirroring a real
  // kernel re-reading its guardrail configuration from disk at boot.
  Status LoadGuardrails(const std::string& source);

  // Runs the interleaved timeline (events + monitor timers) up to `until`.
  // A panicked kernel does not run: the call returns immediately.
  void Run(SimTime until);

  // Delivers one instrumented agent tool call (docs/AGENT.md): chaos
  // (agent.event_drop / agent.dup_session), admission against the
  // agent.ctl.* control keys guardrail actions write, feature publication,
  // then the "agent.tool_call" engine callout — so FUNCTION monitors fire
  // and a persist frame commits per event. Uses max(now, event.at) as the
  // governance timestamp; drive the event queue to event.at first (the
  // harness does) if TIMER monitors must interleave correctly. Returns the
  // admission verdict for the primary event (kAllow for a chaos-dropped
  // event: the underlying tool call ran, instrumentation lost it; kKill on
  // a panicked kernel: a dead kernel executes no tool calls).
  AgentAdmitVerdict OnToolCall(const agent::ToolCallEvent& event);

  // The agent governance pipeline behind OnToolCall (configuration access).
  AgentGovernor& agent_governor() { return agent_governor_; }

  // Marks an agent session as finished and — when the loaded specs carry a
  // `retention { }` block — eagerly reclaims its entire per-session key
  // family (agent.s<id>.*), including the kill latch: a session that ended
  // cleanly cannot come back, so nothing needs to age out via TTL. Returns
  // the number of keys reclaimed (0 without retention, on a panicked
  // kernel, or when the session never published anything).
  uint64_t OnSessionEnd(uint64_t session);

  // Marks an instrumented kernel function call at the current time. Dead
  // code on a panicked kernel: instrumented functions do not run mid-panic.
  void Callout(std::string_view function) {
    if (panicked_) {
      return;
    }
    engine_->OnFunctionCall(function, queue_.now());
  }

 private:
  // Forwards DEPRIORITIZE to whichever subsystem registered; records when
  // none has.
  struct TaskControlShim : TaskControl {
    TaskControl* target = nullptr;
    RecordingTaskControl recorder;
    Status Deprioritize(const std::vector<std::string>& tasks,
                        const std::vector<double>& priorities, SimTime now) override {
      if (target != nullptr) {
        return target->Deprioritize(tasks, priorities, now);
      }
      return recorder.Deprioritize(tasks, priorities, now);
    }
  };

  // Builds a fresh engine wired to this kernel's store/registry/task-control
  // and re-attaches chaos + persist. Shared by the constructor and ColdBoot().
  void BuildEngine();

  // Cold boot: an empty store, a fresh engine, every remembered spec loaded
  // again, then ApplyRetentionWiring(). Reboot() runs it before a warm
  // restart and again as the fallback when the warm restart fails.
  Status ColdBoot();

  // What a loaded retention block asks of the kernel: eager reclamation on
  // agent kill, and agent.sessions pinned. Without one, reclamation on kill
  // stays off and nothing is pinned (off == absent).
  void ApplyRetentionWiring();

  EngineOptions engine_options_;
  FeatureStore store_;
  PolicyRegistry registry_;
  EventQueue queue_;
  // Stateless apart from config + chaos site ids (all governance state is
  // in store_), so it survives BuildEngine/Reboot untouched.
  AgentGovernor agent_governor_{&store_};
  TaskControlShim task_control_shim_;
  std::unique_ptr<Engine> engine_;
  ChaosEngine* chaos_ = nullptr;
  PersistManager* persist_ = nullptr;
  std::vector<std::string> guardrail_sources_;
  bool panicked_ = false;
};

}  // namespace osguard

#endif  // SRC_SIM_KERNEL_H_
