#include "src/runtime/engine.h"

#include <algorithm>
#include <chrono>

#include "src/dsl/parser.h"
#include "src/persist/wire.h"
#include "src/vm/verifier.h"

#include "src/support/logging.h"

namespace osguard {
namespace {

int64_t WallNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Destination register of an instruction, or -1 if it writes none.
int DefRegOf(const Insn& insn) {
  switch (insn.op) {
    case Op::kJump:
    case Op::kJumpIfFalse:
    case Op::kJumpIfTrue:
    case Op::kRet:
      return -1;
    default:
      return insn.a;
  }
}

// Index of a nil constant in `program`'s pool, appended if there is none;
// -1 when the pool is full.
int32_t NilConst(Program& program) {
  for (size_t i = 0; i < program.consts.size(); ++i) {
    if (program.consts[i].is_nil()) {
      return static_cast<int32_t>(i);
    }
  }
  if (program.consts.size() >= static_cast<size_t>(kMaxConstants)) {
    return -1;
  }
  program.consts.emplace_back();
  return static_cast<int32_t>(program.consts.size() - 1);
}

// Load-time specialization: for every store/aggregate kCall whose key operand
// is provably the program constant loaded immediately-dominating the call,
// intern the key into `store` and rewrite the call to kCallKeyed, which reads
// the key from the constant pool and carries the slot id in aux. The analysis
// is deliberately conservative — it walks the straight-line predecessor block
// and gives up at any join point (jump target), non-fall-through instruction,
// or non-constant reaching definition. Calls it cannot prove stay on the
// string path; semantics never change.
//
// When the keyed call is the key register's only reader (it overwrites the
// register, and nothing between the load and the call reads it or branches
// away), the load would only copy the key string for nobody, a heap
// allocation for keys past the small-string buffer. It loads nil instead:
// the instruction stays, so step counts, step budgets and jump offsets are
// unchanged.
void RewriteKeyedCalls(Program& program, FeatureStore& store) {
  const size_t n = program.insns.size();
  std::vector<char> is_target(n, 0);
  std::vector<char> is_branch(n, 0);
  for (size_t pc = 0; pc < n; ++pc) {
    const Insn& insn = program.insns[pc];
    int32_t off = 0;
    switch (insn.op) {
      case Op::kJump:
      case Op::kJumpIfFalse:
      case Op::kJumpIfTrue:
        off = insn.imm;
        break;
      case Op::kCmpConstJf:
      case Op::kCmpConstJt:
      case Op::kCmpRegJf:
      case Op::kCmpRegJt:
        off = insn.aux;
        break;
      default:
        continue;
    }
    is_branch[pc] = 1;
    const size_t target = pc + 1 + static_cast<size_t>(off);
    if (target < n) {
      is_target[target] = 1;
    }
  }
  for (size_t pc = 0; pc < n; ++pc) {
    Insn& call = program.insns[pc];
    if (call.op != Op::kCall || call.c < 1 ||
        !IsKeyedHelper(static_cast<HelperId>(call.imm))) {
      continue;
    }
    if (is_target[pc]) {
      continue;  // multiple predecessors: the key register isn't provable
    }
    const int key_reg = call.b;
    for (size_t k = pc; k-- > 0;) {
      const Insn& def = program.insns[k];
      if (def.op == Op::kJump || def.op == Op::kRet) {
        break;  // the call isn't reached by falling through this pc
      }
      if (DefRegOf(def) == key_reg) {
        // Nearest reaching definition. It dominates the call even if `k` is
        // itself a jump target — every path through k runs this def.
        if (def.op == Op::kLoadConst) {
          const Value& v = program.consts[static_cast<size_t>(def.imm)];
          if (const std::string* key = v.IfString()) {
            const KeyId id = store.InternKey(*key);
            // The id is baked into the program, so the slot must never be
            // recycled under it (docs/STORE.md pin contract).
            store.Pin(id);
            call.op = Op::kCallKeyed;
            call.imm = KeyedCallImm(static_cast<HelperId>(call.imm), def.imm);
            call.aux = static_cast<int32_t>(id);
            bool sole_reader = call.a == key_reg;
            for (size_t m = k + 1; sole_reader && m < pc; ++m) {
              sole_reader =
                  !is_branch[m] && ((RegistersRead(program.insns[m]) >> key_reg) & 1) == 0;
            }
            const int32_t nil = sole_reader ? NilConst(program) : -1;
            if (nil >= 0) {
              program.insns[k].imm = nil;
            }
          }
        }
        break;
      }
      if (is_target[k]) {
        break;  // join point before the def: another path may differ
      }
    }
  }
}

}  // namespace

Engine::Engine(FeatureStore* store, PolicyRegistry* registry, TaskControl* task_control,
               EngineOptions options)
    : store_(store),
      registry_(registry),
      options_(options),
      retrain_queue_(options.retrain),
      dispatcher_(&reporter_, registry, &retrain_queue_, task_control),
      env_(store, &dispatcher_) {
  dispatcher_.SetStore(store);  // publishes the actions.* failure counters
  supervisor_.SetStore(store);  // publishes the supervisor.* health keys
  governor_.Configure(options_.governor, store);  // interns engine.governor.*
  // Third pressure input: approximate store bytes — a deterministic function
  // of store contents, so governed differential runs stay replayable.
  governor_.SetBytesProbe([store] { return store->approx_bytes(); });
  pending_changes_.reserve(64);
  drain_batch_.reserve(64);
  store_->SetObserver(
      [this](const StoreMutation& m, const std::string& key) { OnStoreMutation(m, key); });
}

Engine::~Engine() { store_->SetObserver(nullptr); }

void Engine::ArmTimers(Monitor& monitor) {
  for (size_t i = 0; i < monitor.guardrail.triggers.size(); ++i) {
    const CompiledTrigger& trigger = monitor.guardrail.triggers[i];
    if (trigger.kind != TriggerKind::kTimer) {
      continue;
    }
    // A monitor loaded mid-run starts checking strictly after the current
    // time (no retroactive or immediate firings at load).
    SimTime first = trigger.start;
    if (first <= now_) {
      const Duration interval = trigger.interval;
      const int64_t missed = (now_ - trigger.start) / interval + 1;
      first = trigger.start + missed * interval;
    }
    if (trigger.stop != 0 && first > trigger.stop) {
      continue;
    }
    timers_.push(
        TimerEntry{first, next_tiebreak_++, monitor.guardrail.name, i, monitor.generation});
  }
}

Engine::Monitor* Engine::ResolveEntry(const TimerEntry& entry) const {
  auto it = monitors_.find(entry.monitor_name);
  if (it == monitors_.end() || it->second->generation != entry.generation) {
    return nullptr;
  }
  return it->second.get();
}

void Engine::RebuildFunctionIndex() {
  function_hooks_.clear();
  watch_hooks_.assign(store_->key_count(), {});
  watch_hook_count_ = 0;
  monitor_names_.clear();
  monitor_names_.reserve(monitors_.size());
  for (auto& [name, monitor] : monitors_) {
    monitor_names_.push_back(name);
    for (const CompiledTrigger& trigger : monitor->guardrail.triggers) {
      if (trigger.kind == TriggerKind::kFunction) {
        function_hooks_[trigger.function_name].push_back(monitor.get());
      } else if (trigger.kind == TriggerKind::kOnChange) {
        const KeyId id = store_->InternKey(trigger.watch_key);
        store_->Pin(id);  // watch dispatch caches the id in watch_hooks_
        if (id >= watch_hooks_.size()) {
          watch_hooks_.resize(id + 1);
        }
        watch_hooks_[id].push_back(monitor.get());
        ++watch_hook_count_;
      }
    }
  }
}

std::unique_ptr<Engine::Monitor> Engine::MakeMonitor(CompiledGuardrail guardrail,
                                                     const Monitor* previous) {
  auto monitor = std::make_unique<Monitor>();
  monitor->guardrail = std::move(guardrail);
  monitor->enabled = monitor->guardrail.meta.enabled;
  monitor->generation = next_generation_++;
  if (previous != nullptr) {
    // Replace-by-name carry-over (explicit policy): the counters describe
    // the outgoing program version and reset with it, but the
    // violation-protocol clocks describe the monitored property, so they
    // persist — a hot replace can neither bypass an active cooldown nor
    // discard accumulated hysteresis evidence, and a rule fixed while in
    // violation still emits its satisfied edge.
    monitor->stats.in_violation = previous->stats.in_violation;
    monitor->stats.consecutive_violations = previous->stats.consecutive_violations;
    monitor->stats.last_action_time = previous->stats.last_action_time;
    // uptime_evals counts the monitored *name*, not the program version.
    monitor->stats.uptime_evals = previous->stats.uptime_evals;
    monitor->uptime_published = previous->uptime_published;
    monitor->uptime_key = previous->uptime_key;
  }
  return monitor;
}

Status Engine::Load(CompiledGuardrail guardrail) {
  if (guardrail.name.empty()) {
    return InvalidArgumentError("guardrail has no name");
  }
  // Defense in depth: never trust that the caller verified. ArmTimers
  // divides by a TIMER interval, and AdvanceTo re-arms at due + interval.
  for (const CompiledTrigger& trigger : guardrail.triggers) {
    if (trigger.kind == TriggerKind::kTimer && trigger.interval <= 0) {
      return InvalidArgumentError("guardrail '" + guardrail.name +
                                  "' has a TIMER trigger whose interval is not positive");
    }
  }
  OSGUARD_RETURN_IF_ERROR(Verify(guardrail.rule, VerifyOptions{.allow_actions = false}));
  OSGUARD_RETURN_IF_ERROR(Verify(guardrail.action, VerifyOptions{.allow_actions = true}));
  if (!guardrail.on_satisfy.empty()) {
    OSGUARD_RETURN_IF_ERROR(Verify(guardrail.on_satisfy, VerifyOptions{.allow_actions = true}));
  }
  // Bind constant store keys to slot ids, then re-verify: the rewrite only
  // flips kCall -> kCallKeyed and fills aux, but the verifier is the
  // authority on what runs, so it gets the final word on the mutated form.
  RewriteKeyedCalls(guardrail.rule, *store_);
  RewriteKeyedCalls(guardrail.action, *store_);
  OSGUARD_RETURN_IF_ERROR(Verify(guardrail.rule, VerifyOptions{.allow_actions = false}));
  OSGUARD_RETURN_IF_ERROR(Verify(guardrail.action, VerifyOptions{.allow_actions = true}));
  if (!guardrail.on_satisfy.empty()) {
    RewriteKeyedCalls(guardrail.on_satisfy, *store_);
    OSGUARD_RETURN_IF_ERROR(Verify(guardrail.on_satisfy, VerifyOptions{.allow_actions = true}));
  }
  const std::string name = guardrail.name;
  auto existing = monitors_.find(name);
  const bool replacing = existing != monitors_.end();
  auto monitor = MakeMonitor(std::move(guardrail), replacing ? existing->second.get() : nullptr);
  const GuardrailHealth& health = monitor->guardrail.meta.health;
  if (replacing && health.supervised && health.probation > 0) {
    // Staged deployment: retain the verified, key-rewritten outgoing program
    // so a regressing deploy can be rolled back to it bit-identically.
    monitor->rollback_snapshot =
        std::make_unique<CompiledGuardrail>(existing->second->guardrail);
  }
  monitor->guard = supervisor_.OnLoad(name, health, now_, replacing,
                                      replacing ? existing->second->guard : nullptr);
  monitor->uptime_key = store_->InternKey("monitor." + name + ".uptime_evals");
  store_->Pin(monitor->uptime_key);
  monitors_[name] = std::move(monitor);  // replace-by-name is the update path
  ArmTimers(*monitors_[name]);
  RebuildFunctionIndex();
  MarkDirty();
  OSGUARD_LOG(kDebug) << "loaded guardrail '" << name << "'";
  return OkStatus();
}

Status Engine::LoadSource(const std::string& source) {
  // Run the pipeline in stages (rather than CompileSource) so the analyzed
  // chaos block is visible before compilation.
  OSGUARD_ASSIGN_OR_RETURN(SpecFile spec, ParseSpecSource(source));
  OSGUARD_ASSIGN_OR_RETURN(AnalyzedSpec analyzed, Analyze(std::move(spec)));
  if (analyzed.chaos.has_value() && chaos_ != nullptr) {
    OSGUARD_RETURN_IF_ERROR(ApplyChaosSpec(*analyzed.chaos, *chaos_));
  }
  // Same contract as chaos: a persist block with no manager attached is
  // validated but inert.
  if (analyzed.persist.has_value() && persist_ != nullptr) {
    persist_->Configure(analyzed.persist->snapshot_interval,
                        analyzed.persist->journal_budget);
  }
  if (analyzed.retention.has_value()) {
    RetentionOptions ropts;
    ropts.enabled = true;
    ropts.scan_chunk = analyzed.retention->scan_chunk;
    for (const AnalyzedRetentionNamespace& ns : analyzed.retention->namespaces) {
      ropts.namespaces.push_back(
          RetentionNamespaceOptions{ns.prefix, ns.max_keys, ns.idle_ttl});
    }
    retention_.Configure(WithBuiltinNamespaces(std::move(ropts)), store_);
    retention_.AttachChaos(chaos_);
  }
  OSGUARD_ASSIGN_OR_RETURN(std::vector<CompiledGuardrail> compiled, CompileSpec(analyzed));
  for (CompiledGuardrail& guardrail : compiled) {
    OSGUARD_RETURN_IF_ERROR(Load(std::move(guardrail)));
  }
  return OkStatus();
}

void Engine::SetChaos(ChaosEngine* chaos) {
  chaos_ = chaos;
  env_.SetChaos(chaos);
  dispatcher_.SetChaos(chaos);
  supervisor_.SetChaos(chaos);  // supervisor.probe_fail, vm.budget_exhaust
  retention_.AttachChaos(chaos);  // store.evict_storm, store.quota_breach
  if (chaos != nullptr) {
    callout_drop_site_ = chaos->RegisterSite(kChaosSiteCalloutDrop);
    callout_delay_site_ = chaos->RegisterSite(kChaosSiteCalloutDelay);
  } else {
    callout_drop_site_ = kInvalidChaosSite;
    callout_delay_site_ = kInvalidChaosSite;
  }
}

Status Engine::Unload(const std::string& name) {
  auto it = monitors_.find(name);
  if (it == monitors_.end()) {
    return NotFoundError("no guardrail named '" + name + "'");
  }
  const KeyId uptime_key = it->second->uptime_key;
  monitors_.erase(it);  // queued timer entries die via generation mismatch
  supervisor_.OnUnload(name);
  RebuildFunctionIndex();
  // The dead monitor's counter key loses its pin and is handed to the
  // retention manager: with a retention block it ages out via the
  // "monitor." namespace TTL instead of leaking. (Adoption is explicit —
  // retention only tracks slots as they are written, and nothing writes an
  // unloaded monitor's counters again.) A pin is a flag, not a count, so
  // the key stays pinned while a loaded monitor still reads it.
  if (uptime_key != kInvalidKeyId && !SlotBound(uptime_key)) {
    store_->Unpin(uptime_key);
    retention_.AdoptKey(uptime_key, now_);
  }
  MarkDirty();
  return OkStatus();
}

bool Engine::SlotBound(KeyId id) const {
  if (id < watch_hooks_.size() && !watch_hooks_[id].empty()) {
    return true;
  }
  const auto binds = [id](const Program& program) {
    return std::any_of(program.insns.begin(), program.insns.end(), [id](const Insn& insn) {
      return insn.op == Op::kCallKeyed && static_cast<KeyId>(insn.aux) == id;
    });
  };
  for (const auto& [name, monitor] : monitors_) {
    const CompiledGuardrail* versions[] = {&monitor->guardrail,
                                           monitor->rollback_snapshot.get()};
    for (const CompiledGuardrail* guardrail : versions) {
      if (guardrail != nullptr && (binds(guardrail->rule) || binds(guardrail->action) ||
                                   binds(guardrail->on_satisfy))) {
        return true;
      }
    }
  }
  return false;
}

Status Engine::SetEnabled(const std::string& name, bool enabled) {
  auto it = monitors_.find(name);
  if (it == monitors_.end()) {
    return NotFoundError("no guardrail named '" + name + "'");
  }
  it->second->enabled = enabled;
  MarkDirty();
  return OkStatus();
}

bool Engine::Contains(const std::string& name) const { return monitors_.count(name) > 0; }

Result<MonitorStats> Engine::StatsFor(const std::string& name) const {
  const MonitorStats* stats = FindStats(name);
  if (stats == nullptr) {
    return NotFoundError("no guardrail named '" + name + "'");
  }
  return *stats;
}

const MonitorStats* Engine::FindStats(const std::string& name) const {
  auto it = monitors_.find(name);
  return it == monitors_.end() ? nullptr : &it->second->stats;
}

const CompiledGuardrail* Engine::FindGuardrail(const std::string& name) const {
  auto it = monitors_.find(name);
  return it == monitors_.end() ? nullptr : &it->second->guardrail;
}

std::optional<SimTime> Engine::NextTimerDeadline() {
  // A stale entry stays stale (generations are never reused), and AdvanceTo
  // and EncodeImage skip it anyway, so dropping it here changes nothing.
  while (!timers_.empty()) {
    if (ResolveEntry(timers_.top()) != nullptr) {
      return timers_.top().due;
    }
    timers_.pop();
  }
  return std::nullopt;
}

void Engine::AdvanceTo(SimTime t) {
  ApplyPendingRollbacks();
  while (!timers_.empty() && timers_.top().due <= t) {
    TimerEntry entry = timers_.top();
    timers_.pop();
    // Drop entries whose monitor was unloaded or replaced.
    Monitor* monitor = ResolveEntry(entry);
    if (monitor == nullptr) {
      continue;
    }
    const CompiledTrigger& trigger = monitor->guardrail.triggers[entry.trigger_index];
    now_ = std::max(now_, entry.due);
    if (monitor->enabled) {
      ++stats_.timer_firings;
      Evaluate(*monitor, entry.due);
    }
    const SimTime next = entry.due + trigger.interval;
    if (trigger.stop == 0 || next <= trigger.stop) {
      timers_.push(TimerEntry{next, next_tiebreak_++, entry.monitor_name, entry.trigger_index,
                              entry.generation});
    }
    // Between timer entries no Monitor pointers or trigger references are
    // live, so a rollback queued by the evaluation applies here — before the
    // doomed version can see another trigger.
    ApplyPendingRollbacks();
  }
  now_ = std::max(now_, t);
  EndBoundary();
}

void Engine::OnFunctionCall(std::string_view function, SimTime t) {
  now_ = std::max(now_, t);
  if (function_hooks_.empty()) {
    return;  // hot path when no FUNCTION guardrail is loaded
  }
  if (chaos_ != nullptr) {
    // Dropped callouts advance the clock (time is the kernel's) but the
    // hooked monitors never see the call; delayed callouts evaluate at the
    // shifted timestamp, modeling instrumentation latency.
    if (chaos_->ShouldInject(callout_drop_site_, t)) {
      ++stats_.callouts_dropped;
      return;
    }
    if (const FaultDecision delay = chaos_->Query(callout_delay_site_, t)) {
      ++stats_.callouts_delayed;
      t += delay.latency;
      now_ = std::max(now_, t);
    }
  }
  auto it = function_hooks_.find(function);  // heterogeneous: no temp string
  if (it == function_hooks_.end()) {
    return;
  }
  for (Monitor* monitor : it->second) {
    if (monitor->enabled) {
      ++stats_.function_firings;
      Evaluate(*monitor, now_);
    }
  }
  EndBoundary();  // after the loop: `it` is dead past this point
}

void Engine::OnStoreMutation(const StoreMutation& m, const std::string& key) {
  if (restoring_) {
    return;
  }
  if (persist_ != nullptr) {
    persist_->Record(m, key);
  }
  if (!m.is_write()) {
    return;
  }
  if (retention_.enabled()) {
    retention_.OnWrite(m, key, now_);
  }
  if (watch_hook_count_ == 0) {
    return;  // hot path when no ONCHANGE guardrail is loaded
  }
  if (m.id >= watch_hooks_.size() || watch_hooks_[m.id].empty()) {
    return;
  }
  if (evaluating_) {
    // Write performed by a running monitor program: defer (see header).
    pending_changes_.push_back(m.id);
    return;
  }
  // In place: nothing under Evaluate rebuilds watch_hooks_ (rollbacks wait
  // for ApplyPendingRollbacks below).
  for (Monitor* monitor : watch_hooks_[m.id]) {
    if (monitor->enabled) {
      ++stats_.change_firings;
      Evaluate(*monitor, now_);
    }
  }
  DrainPendingChanges();
  ApplyPendingRollbacks();
}

void Engine::DrainPendingChanges() {
  if (draining_) {
    return;  // the outermost drain loop owns the queue
  }
  draining_ = true;
  // Bounded cascade: monitor actions may write watched keys, which would
  // re-trigger other ONCHANGE monitors. Process at most this many deferred
  // evaluations per drain; anything beyond is dropped and counted.
  constexpr int kCascadeBudget = 64;
  int processed = 0;
  while (!pending_changes_.empty()) {
    drain_batch_.clear();
    drain_batch_.swap(pending_changes_);
    for (const KeyId id : drain_batch_) {
      if (id >= watch_hooks_.size()) {
        continue;
      }
      for (Monitor* monitor : watch_hooks_[id]) {
        if (!monitor->enabled) {
          continue;
        }
        if (processed >= kCascadeBudget) {
          ++stats_.change_cascade_suppressed;
          continue;
        }
        ++processed;
        ++stats_.change_firings;
        Evaluate(*monitor, now_);
      }
    }
    if (processed >= kCascadeBudget) {
      stats_.change_cascade_suppressed += pending_changes_.size();
      pending_changes_.clear();
      break;
    }
  }
  draining_ = false;
}

void Engine::QueuePendingRollback(Monitor& monitor) {
  if (monitor.guard == nullptr || !monitor.guard->rollback_pending || monitor.rollback_queued) {
    return;
  }
  if (monitor.rollback_snapshot == nullptr) {
    // Nothing to restore (first load of this name): clear the request so the
    // monitor isn't skipped forever waiting on an impossible rollback.
    monitor.guard->rollback_pending = false;
    return;
  }
  monitor.rollback_queued = true;
  pending_rollbacks_.emplace_back(monitor.guardrail.name, monitor.generation);
}

void Engine::ApplyPendingRollbacks() {
  if (evaluating_ || pending_rollbacks_.empty()) {
    return;
  }
  std::vector<std::pair<std::string, uint64_t>> pending;
  pending.swap(pending_rollbacks_);
  for (const auto& [name, generation] : pending) {
    auto it = monitors_.find(name);
    if (it == monitors_.end() || it->second->generation != generation ||
        it->second->rollback_snapshot == nullptr) {
      continue;  // unloaded or replaced again since the rollback was queued
    }
    Monitor& doomed = *it->second;
    // The snapshot was verified and key-rewritten at its original load, so
    // the restored program is bit-identical to the pre-deploy version; no
    // re-verification or rewrite may touch it here. Same carry-over policy
    // as a replace.
    auto restored = MakeMonitor(std::move(*doomed.rollback_snapshot), &doomed);
    restored->guard = supervisor_.OnRollback(name, restored->guardrail.meta.health);
    Report(*restored, now_, ReportKind::kMonitorError,
           "probation deploy rolled back by supervisor");
    it->second = std::move(restored);
    ArmTimers(*it->second);
    RebuildFunctionIndex();
    MarkDirty();
    OSGUARD_LOG(kDebug) << "rolled back guardrail '" << name
                        << "' to its pre-deploy version";
  }
}

void Engine::MarkDirty() {
  if (persist_ != nullptr) {
    persist_->MarkDirty();
  }
}

void Engine::Report(const Monitor& monitor, SimTime t, ReportKind kind, std::string message) {
  reporter_.Report(ReportRecord{0, t, kind, monitor.guardrail.meta.severity,
                                monitor.guardrail.name, std::move(message), {}});
}

void Engine::ApplyDefault(Monitor& monitor, SimTime t, const char* why) {
  Report(monitor, t, ReportKind::kMonitorError, why);
  RunActions(monitor, monitor.guardrail.action, t);
}

Result<Value> Engine::Execute(Monitor& monitor, const Program& program, SimTime t,
                              int64_t& wall_ns) {
  env_.UpdateEnvelope(monitor.guardrail.name, monitor.guardrail.meta.severity, t);
  const int64_t start = WallNowNs();
  auto result = vm_.Execute(program, env_,
                            monitor.guard != nullptr ? monitor.guard->config.budget_steps : 0);
  const int64_t elapsed = WallNowNs() - start;
  wall_ns += elapsed;
  stats_.total_wall_ns += elapsed;
  return result;
}

void Engine::RunActions(Monitor& monitor, const Program& program, SimTime t) {
  const uint64_t failures_before =
      monitor.guard != nullptr ? dispatcher_.failure_count() : 0;
  auto result = Execute(monitor, program, t, monitor.stats.action_wall_ns);
  if (!result.ok()) {
    ++monitor.stats.errors;
    ++stats_.errors;
    Report(monitor, t, ReportKind::kMonitorError, result.status().ToString());
  }
  if (monitor.guard != nullptr) {
    // Failure events against the breaker: every dispatch chain that exhausted
    // its retries during this program (counted even when a fallback rescued
    // the VM-level result), plus one for a program fault with no exhausted
    // chain behind it (type error, budget abort). An exhausted chain that
    // also faulted the program counts once, via the dispatcher delta.
    uint64_t events = dispatcher_.failure_count() - failures_before;
    if (!result.ok() && events == 0) {
      events = 1;
    }
    supervisor_.OnActionFailures(*monitor.guard, events);
  }
}

void Engine::Evaluate(Monitor& monitor, SimTime t) {
  // Every evaluation moves protocol state (stats, gate counters, EWMAs), so
  // the boundary that follows must commit a frame.
  MarkDirty();
  // Mark the engine as evaluating so store writes made by this monitor's
  // own programs defer their ONCHANGE processing (no re-entrant evaluation).
  const bool outermost = !evaluating_;
  evaluating_ = true;
  RunProtocol(monitor, t);
  if (outermost) {
    evaluating_ = false;
    DrainPendingChanges();
  }
}

void Engine::RunProtocol(Monitor& monitor, SimTime t) {
  GuardHealth* guard = monitor.guard;
  if (governor_.enabled()) {
    // Overload ladder first: a shed evaluation must cost nothing, so it
    // skips even the supervisor gate.
    const GovernorDecision decision =
        governor_.Admit(monitor.guardrail.meta.criticality, ++monitor.gov_attempts,
                        monitor.gov_static_epoch);
    if (decision == GovernorDecision::kShed) {
      return;
    }
    if (decision == GovernorDecision::kStatic) {
      // Fail-static: pin this critical monitor's corrective action once as
      // the safe static default for the episode, then suppress evaluation
      // until the ladder de-escalates.
      monitor.gov_static_epoch = governor_.fail_static_epoch();
      governor_.CountStaticApply();
      ApplyDefault(monitor, t, "overload governor fail-static: applying corrective default");
      return;
    }
  }
  const GateDecision gate =
      guard != nullptr ? supervisor_.Gate(*guard, t) : GateDecision::kEvaluate;
  if (gate == GateDecision::kSkip) {
    QueuePendingRollback(monitor);  // a pending rollback always gates off
    return;
  }
  MonitorStats& stats = monitor.stats;
  ++stats.evaluations;
  ++stats.uptime_evals;
  uptime_dirty_ = true;
  ++stats_.evaluations;

  const bool injected_budget = guard != nullptr && supervisor_.InjectBudgetExhaust(t);
  const int64_t steps_before = vm_.stats().insns_executed;
  auto result = injected_budget
                    ? Result<Value>(ResourceExhaustedError(
                          "rule of guardrail '" + monitor.guardrail.name +
                          "' aborted by chaos site vm.budget_exhaust"))
                    : Execute(monitor, monitor.guardrail.rule, t, stats.rule_wall_ns);
  if (guard != nullptr) {
    EvalOutcome outcome = EvalOutcome::kOk;
    if (!result.ok()) {
      outcome = result.status().code() == ErrorCode::kResourceExhausted
                    ? EvalOutcome::kBudgetExceeded
                    : EvalOutcome::kError;
    }
    supervisor_.OnEvalResult(*guard, gate, outcome, vm_.stats().insns_executed - steps_before,
                             t);
  }

  if (!result.ok()) {
    // "No decision": a faulty monitor must neither crash the kernel nor
    // trigger corrective actions.
    ++stats.errors;
    ++stats_.errors;
    Report(monitor, t, ReportKind::kMonitorError, result.status().ToString());
  } else if (TruthyValue(result.value())) {
    // Property holds.
    if (stats.in_violation) {
      stats.in_violation = false;
      ++stats.satisfy_firings;
      Report(monitor, t, ReportKind::kSatisfied, "property satisfied again");
      if (guard != nullptr) {
        supervisor_.OnViolationFlip(*guard, t);
      }
      if (!monitor.guardrail.on_satisfy.empty()) {
        RunActions(monitor, monitor.guardrail.on_satisfy, t);
      }
    }
    stats.consecutive_violations = 0;
  } else {
    // Violation path.
    ++stats.violations;
    ++stats_.violations;
    ++stats.consecutive_violations;
    if (stats.consecutive_violations < monitor.guardrail.meta.hysteresis) {
      ++stats.suppressed_hysteresis;
    } else {
      const Duration cooldown = monitor.guardrail.meta.cooldown;
      if (stats.last_action_time >= 0 && cooldown > 0 &&
          t - stats.last_action_time < cooldown) {
        ++stats.suppressed_cooldown;
      } else {
        const bool entered_violation = !stats.in_violation;
        stats.in_violation = true;
        stats.last_action_time = t;
        ++stats.action_firings;
        ++stats_.action_firings;
        Report(monitor, t, ReportKind::kViolation, "rule violated");
        if (entered_violation && guard != nullptr) {
          supervisor_.OnViolationFlip(*guard, t);
        }
        RunActions(monitor, monitor.guardrail.action, t);
      }
    }
  }

  // Quarantine / rollback tail — runs after *every* evaluation, including
  // the error path above.
  if (guard != nullptr) {
    if (supervisor_.ConsumeQuarantineAction(*guard)) {
      // The breaker just opened: apply the corrective action once as the
      // quarantine fail-safe default, then suppress evals until a probe
      // reinstates the guardrail. (The breaker is open, so any failures the
      // default itself reports cannot re-trip it.)
      ApplyDefault(monitor, t, "quarantined by supervisor; applying corrective default");
    }
    QueuePendingRollback(monitor);
  }
}

// --- Crash consistency (osguard::persist) ---

namespace {

// v2 appended the overload-governor ladder state (global + per-monitor): a
// panic landing mid-degradation must warm-restart into the same ladder state.
// v3 added the governor's bytes_ewma and the retention image; v4 dropped the
// native-tier counters and per-monitor promotion state; v5 dropped every
// value read from the host clock (engine and per-monitor wall costs, the
// dispatcher's latency stats, the governor's wall mark), so an image is a
// function of the simulation alone.
constexpr uint32_t kImageVersion = 5;

}  // namespace

void Engine::SetPersist(PersistManager* persist) {
  persist_ = persist;
  if (persist_ != nullptr) {
    last_report_mark_ = reporter_.total_reports();
  }
}

void Engine::EndBoundary() {
  ApplyPendingRollbacks();
  PublishUptimeStats();
  RunRetention();
  FinishCalloutGovernor();
  CommitPersist();
}

void Engine::FinishCalloutGovernor() {
  if (!governor_.enabled() || evaluating_) {
    return;
  }
  governor_.OnCalloutEnd(now_, stats_.evaluations);
  governor_.Publish();
}

void Engine::RunRetention() {
  if (!retention_.enabled() || evaluating_) {
    return;
  }
  retention_.RunAtBoundary(now_);
}

void Engine::PublishUptimeStats() {
  if (evaluating_ || !uptime_dirty_) {
    return;
  }
  uptime_dirty_ = false;
  for (auto& [name, monitor] : monitors_) {
    if (monitor->uptime_key == kInvalidKeyId ||
        monitor->stats.uptime_evals == monitor->uptime_published) {
      continue;
    }
    monitor->uptime_published = monitor->stats.uptime_evals;
    store_->Save(monitor->uptime_key,
                 Value(static_cast<int64_t>(monitor->stats.uptime_evals)));
  }
}

void Engine::CommitPersist() {
  if (persist_ == nullptr || evaluating_ || !persist_->dirty()) {
    return;
  }
  persist_image_.clear();
  EncodeImageTo(&persist_image_);
  persist_delta_.clear();
  EncodeReportsSince(last_report_mark_, &persist_delta_);
  const uint64_t mark = reporter_.total_reports();
  const Status committed = persist_->CommitFrame(now_, persist_delta_, persist_image_);
  // The delta mark advances even on failure: the records were offered once.
  last_report_mark_ = mark;
  if (!committed.ok()) {
    OSGUARD_LOG(kWarning) << "persist commit failed: " << committed.ToString();
    return;
  }
  if (persist_->SnapshotDue(now_)) {
    const Status snapshot = persist_->WriteSnapshot(now_, store_->DumpSlots(),
                                                    EncodeReportRing(), persist_image_);
    if (!snapshot.ok()) {
      OSGUARD_LOG(kWarning) << "persist snapshot failed: " << snapshot.ToString();
    }
  }
}

std::string Engine::EncodeImage() const {
  std::string out;
  EncodeImageTo(&out);
  return out;
}

void Engine::EncodeImageTo(std::string* out) const {
  FieldWriter w(out);
  w.U32(kImageVersion);
  PersistFields(w, *this);
  ActionDispatcher::PersistFields(w, dispatcher_);
  Reporter::PersistFields(w, reporter_);
  RetrainQueue::PersistFields(w, retrain_queue_);
  GuardrailSupervisor::PersistFields(w, supervisor_);
  OverloadGovernor::PersistFields(w, governor_);
  w.U32(monitors_.size());
  for (const auto& [name, monitor] : monitors_) {  // std::map: sorted order
    w.Str(name);
    Monitor::PersistFields(w, *monitor);
  }
  // Live timer entries in the order the heap drains them: (due, tiebreak)
  // is unique, so sorting by it gives that order without copying the heap.
  // Stale entries are stale forever, so they are not worth persisting.
  std::vector<const TimerEntry*> live;
  live.reserve(timers_.size());
  for (const TimerEntry& entry : timers_.entries()) {
    if (ResolveEntry(entry) != nullptr) {
      live.push_back(&entry);
    }
  }
  std::sort(live.begin(), live.end(),
            [](const TimerEntry* a, const TimerEntry* b) { return *b > *a; });
  w.U32(live.size());
  for (const TimerEntry* entry : live) {
    TimerEntry::PersistFields(w, *entry);
  }
  RetentionManager::PersistFields(w, retention_);
}

Status Engine::ApplyImage(std::string_view image) {
  FieldReader r(image, "image");
  uint32_t version = 0;
  r.U32(version);
  if (!r.ok()) {
    return r.status();
  }
  if (version != kImageVersion) {
    return InvalidArgumentError("image version " + std::to_string(version) +
                                " is not supported (expected " +
                                std::to_string(kImageVersion) + ")");
  }
  PersistFields(r, *this);
  ActionDispatcher::PersistFields(r, dispatcher_);
  Reporter::PersistFields(r, reporter_);
  RetrainQueue::PersistFields(r, retrain_queue_);
  GuardrailSupervisor::PersistFields(r, supervisor_);
  OverloadGovernor::PersistFields(r, governor_);
  const uint32_t monitor_count = r.Count("monitor");
  for (uint32_t i = 0; i < monitor_count && r.ok(); ++i) {
    std::string name;
    r.Str(name);
    auto it = monitors_.find(name);
    Monitor spare;  // an unknown monitor's record is read into it and dropped
    Monitor& monitor = it != monitors_.end() ? *it->second : spare;
    const uint64_t dropped = r.dropped();
    Monitor::PersistFields(r, monitor);
    if (!r.ok()) {
      break;
    }
    if (&monitor == &spare) {
      OSGUARD_LOG(kWarning) << "persist: image carries monitor '" << name
                            << "' which is not loaded; skipping its state";
    } else if (r.dropped() != dropped) {
      OSGUARD_LOG(kWarning) << "persist: image carries supervisor state for '" << name
                            << "' but the reloaded spec does not supervise it; skipping";
    }
    monitor.uptime_published = monitor.stats.uptime_evals;
    monitor.stats.rule_wall_ns = 0;  // host-clock costs are process-local
    monitor.stats.action_wall_ns = 0;
  }
  stats_.total_wall_ns = 0;
  // The timer queue is replaced wholesale: load-time arming described a cold
  // start, the image describes the committed schedule. Entries are remapped
  // to the current monitor generations.
  const uint32_t timer_count = r.Count("timer");
  TimerHeap timers;
  for (uint32_t i = 0; i < timer_count && r.ok(); ++i) {
    TimerEntry entry{};
    TimerEntry::PersistFields(r, entry);
    if (!r.ok()) {
      break;
    }
    auto it = monitors_.find(entry.monitor_name);
    if (it == monitors_.end() ||
        entry.trigger_index >= it->second->guardrail.triggers.size()) {
      OSGUARD_LOG(kWarning) << "persist: dropping timer entry for unknown monitor '"
                            << entry.monitor_name << "'";
      continue;
    }
    entry.generation = it->second->generation;
    timers.push(std::move(entry));
  }
  RetentionManager::PersistFields(r, retention_);
  retention_.FitTrackersToNamespaces();
  if (!r.ok()) {
    return r.status();
  }
  if (!r.done()) {
    return InvalidArgumentError("image: " + std::to_string(r.remaining()) +
                                " trailing bytes");
  }
  timers_ = std::move(timers);
  // The store holds the committed uptime exports already (via slot dump +
  // op replay); the restored counters match them, so nothing is stale.
  uptime_dirty_ = false;
  return OkStatus();
}

void Engine::EncodeReportsSince(uint64_t from, std::string* out) const {
  const size_t count_at = out->size();
  FieldWriter w(out);
  w.U32(0);  // record count
  uint32_t count = 0;
  reporter_.ForEachRecordSince(from, [&](const ReportRecord& record) {
    ReportRecord::PersistFields(w, record);
    ++count;
  });
  ByteWriter(out).PatchU32(count_at, count);
}

std::string Engine::EncodeReportRing() const {
  std::string out;
  EncodeReportsSince(0, &out);
  return out;
}

Status Engine::ApplyReportBlob(std::string_view blob) {
  FieldReader r(blob, "report record");
  const uint32_t count = r.Count("record");
  for (uint32_t i = 0; i < count && r.ok(); ++i) {
    ReportRecord record;
    ReportRecord::PersistFields(r, record);
    if (r.ok()) {
      reporter_.RestoreRecord(std::move(record));
    }
  }
  if (!r.ok()) {
    return r.status();
  }
  if (!r.done()) {
    return InvalidArgumentError("report blob: " + std::to_string(r.remaining()) +
                                " trailing bytes");
  }
  return OkStatus();
}

Result<RecoveryInfo> Engine::Restore(PersistManager& persist) {
  OSGUARD_ASSIGN_OR_RETURN(RecoveredState state, persist.LoadForRecovery());
  OSGUARD_RETURN_IF_ERROR(persist.Open());
  if (state.info.cold_start) {
    last_report_mark_ = reporter_.total_reports();
    return state.info;
  }
  // Replay must not re-journal its own writes or fire ONCHANGE monitors:
  // the recovered state already reflects every evaluation those writes
  // caused in the original run.
  restoring_ = true;
  store_->RestoreSlots(state.base.store);
  Status status = OkStatus();
  if (!state.base.report_ring.empty()) {
    status = ApplyReportBlob(state.base.report_ring);
  }
  for (const JournalFrame& frame : state.frames) {
    if (!status.ok()) {
      break;
    }
    for (const StoreOp& op : frame.ops) {
      switch (op.kind) {
        case StoreMutation::Kind::kSave:
          store_->Save(op.key, op.value);
          break;
        case StoreMutation::Kind::kObserve:
          store_->Observe(op.key, op.time, op.sample);
          break;
        case StoreMutation::Kind::kErase:
          // A reclaim frame must replay as a reclaim, not a plain erase:
          // reclamation recycles the slot and bumps its generation, and the
          // ops that follow may intern into the recycled slot. Best-effort —
          // the key may already be gone (NotFound) in a replayed prefix.
          if (op.reclaim) {
            (void)store_->ReclaimKey(op.key);
          } else {
            (void)store_->Erase(op.key);
          }
          break;
        case StoreMutation::Kind::kSetSeriesOptions:
          store_->SetSeriesOptions(
              op.key, SeriesOptions{static_cast<size_t>(op.max_samples), op.max_age});
          break;
      }
    }
    if (!frame.report_delta.empty()) {
      status = ApplyReportBlob(frame.report_delta);
    }
  }
  if (status.ok() && !state.image.empty()) {
    status = ApplyImage(state.image);
  }
  restoring_ = false;
  OSGUARD_RETURN_IF_ERROR(Annotate(status, "warm restart failed"));
  // The observer ignored the replay, so the retention manager saw none of
  // the writes. Rebuild its membership and stamps from the restored store
  // (deterministic: both sides of a differential restore the same slots).
  retention_.ResyncAfterRestore(now_);
  last_report_mark_ = reporter_.total_reports();
  return state.info;
}

}  // namespace osguard
