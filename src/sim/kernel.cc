#include "src/sim/kernel.h"

#include <algorithm>
#include <utility>

#include "src/support/logging.h"

namespace osguard {

Kernel::Kernel(EngineOptions engine_options) : engine_options_(engine_options) {
  BuildEngine();
}

void Kernel::BuildEngine() {
  engine_ = std::make_unique<Engine>(&store_, &registry_, &task_control_shim_, engine_options_);
  // Route store writes to the engine: the retention manager stamps the
  // slot's last-write clock, then ONCHANGE triggers fire.
  store_.SetWriteObserver([this](const StoreWriteInfo& info, const std::string& key) {
    engine_->OnStoreWrite(info, key);
  });
  // The overload governor's queue-depth signal is the simulated event queue:
  // a deterministic function of simulated state, so governed differential
  // runs replay bit-identically.
  engine_->governor().SetQueueProbe([this] { return queue_.size(); });
  if (chaos_ != nullptr) {
    engine_->SetChaos(chaos_);
  }
  if (persist_ != nullptr) {
    engine_->SetPersist(persist_);
  }
}

Status Kernel::LoadGuardrails(const std::string& source) {
  OSGUARD_RETURN_IF_ERROR(engine_->LoadSource(source));
  guardrail_sources_.push_back(source);
  ApplyRetentionWiring();
  return OkStatus();
}

Status Kernel::ColdBoot() {
  // Honest crash semantics: a rebooted kernel does not remember interning
  // order, monitor generations, or anything else held in RAM.
  store_.Reset();
  BuildEngine();
  for (const std::string& source : guardrail_sources_) {
    OSGUARD_RETURN_IF_ERROR(engine_->LoadSource(source));
  }
  ApplyRetentionWiring();
  return OkStatus();
}

void Kernel::ApplyRetentionWiring() {
  // A retention block turns on eager per-session cleanup in the agent
  // governor (kill-path data reclamation); without one the governor keeps
  // the seed behavior exactly (off == absent).
  agent_governor_.set_reclaim_on_kill(engine_->retention().enabled());
  if (engine_->retention().enabled()) {
    // agent.sessions shares the "agent.s" prefix with the per-session key
    // families the builtin namespace governs; pinning exempts the global.
    store_.Pin(store_.InternKey(kAgentKeySessions));
  }
}

void Kernel::AttachPersist(PersistManager* persist) {
  persist_ = persist;
  engine_->SetPersist(persist);
}

void Kernel::SchedulePanicAt(SimTime at) {
  queue_.ScheduleAt(at, [this](SimTime /*now*/) { Panic(); });
}

void Kernel::Panic() {
  if (panicked_) {
    return;
  }
  panicked_ = true;
  // A panic drops in-flight work on the floor. Committed guardrail state is
  // already on disk (journal frames are written at callout boundaries);
  // everything since the last commit is lost by design.
  queue_.Clear();
  OSGUARD_LOG(kWarning) << "kernel panic at t=" << queue_.now() << "ns; "
                        << "dropped pending events, awaiting reboot";
}

Result<RecoveryInfo> Kernel::Reboot() {
  panicked_ = false;
  OSGUARD_RETURN_IF_ERROR(ColdBoot());
  if (persist_ == nullptr) {
    // No persistence attached: the reboot is a cold start by definition.
    RecoveryInfo info;
    info.cold_start = true;
    info.detail = "cold start (no persist manager attached)";
    return info;
  }
  auto recovered = engine_->Restore(*persist_);
  if (recovered.ok()) {
    return std::move(recovered).value();
  }
  // Graceful degradation: a failed warm restart must never leave the kernel
  // running half-restored state. Rebuild the engine from scratch, reload the
  // specs, and come back cold; journaling continues past the damage.
  OSGUARD_LOG(kWarning) << "warm restart failed (" << recovered.status().ToString()
                        << "); falling back to cold start";
  OSGUARD_RETURN_IF_ERROR(ColdBoot());
  RecoveryInfo info;
  info.cold_start = true;
  info.detail = "warm restart failed, cold start: " + recovered.status().ToString();
  return info;
}

uint64_t Kernel::OnSessionEnd(uint64_t session) {
  if (panicked_ || !engine_->retention().enabled()) {
    return 0;
  }
  return engine_->retention().ReclaimPrefix(AgentSessionKey(session, ""));
}

AgentAdmitVerdict Kernel::OnToolCall(const agent::ToolCallEvent& event) {
  if (panicked_) {
    // A dead kernel executes no tool calls; nothing is observed or stored.
    return AgentAdmitVerdict::kKill;
  }
  const SimTime t = std::max(queue_.now(), event.at);
  const auto fire_callout = [&] { engine_->OnFunctionCall(kAgentCalloutFunction, t); };
  if (chaos_ != nullptr) {
    // Drop first (a lost event cannot be duplicated). Unarmed sites consume
    // no randomness, preserving the chaos-off == chaos-absent differential.
    if (agent_governor_.drop_site() != kInvalidChaosSite &&
        chaos_->ShouldInject(agent_governor_.drop_site(), t)) {
      return AgentAdmitVerdict::kAllow;
    }
    if (agent_governor_.dup_site() != kInvalidChaosSite &&
        chaos_->ShouldInject(agent_governor_.dup_site(), t)) {
      // The duplicate is delivered under a ghost session id, modeling a
      // session-id collision in the event bus; each delivery gets its own
      // callout, exactly as doubled instrumentation would.
      const AgentAdmitVerdict verdict = agent_governor_.Process(event, t);
      fire_callout();
      agent::ToolCallEvent ghost = event;
      ghost.session ^= kAgentGhostSessionXor;
      agent_governor_.Process(ghost, t);
      fire_callout();
      return verdict;
    }
  }
  const AgentAdmitVerdict verdict = agent_governor_.Process(event, t);
  fire_callout();
  return verdict;
}

void Kernel::Run(SimTime until) {
  if (panicked_) {
    return;
  }
  // Interleave workload events and monitor timers in timestamp order: run
  // queue events up to the next monitor deadline, fire the monitors, repeat.
  while (true) {
    auto deadline = engine_->NextTimerDeadline();
    if (!deadline.has_value() || *deadline > until) {
      break;
    }
    queue_.RunUntil(*deadline);
    if (panicked_) {
      return;
    }
    engine_->AdvanceTo(*deadline);
  }
  queue_.RunUntil(until);
  if (panicked_) {
    return;
  }
  engine_->AdvanceTo(until);
}

}  // namespace osguard
