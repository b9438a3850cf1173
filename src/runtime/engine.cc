#include "src/runtime/engine.h"

#include <algorithm>
#include <chrono>

#include "src/dsl/parser.h"
#include "src/vm/verifier.h"

#include "src/support/logging.h"

namespace osguard {
namespace {

int64_t WallNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Helpers whose first argument is a feature-store key — candidates for the
// kCall -> kCallKeyed slot-id rewrite.
bool IsKeyedHelper(HelperId id) {
  switch (id) {
    case HelperId::kLoad:
    case HelperId::kLoadOr:
    case HelperId::kSave:
    case HelperId::kIncr:
    case HelperId::kExists:
    case HelperId::kObserve:
    case HelperId::kCount:
    case HelperId::kSum:
    case HelperId::kMean:
    case HelperId::kMinAgg:
    case HelperId::kMaxAgg:
    case HelperId::kStdDev:
    case HelperId::kRate:
    case HelperId::kNewest:
    case HelperId::kOldest:
    case HelperId::kQuantile:
      return true;
    default:
      return false;
  }
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

// Load-time specialization: for every store/aggregate kCall whose key operand
// is provably the program constant loaded immediately-dominating the call,
// intern the key into `store` and rewrite the call to kCallKeyed carrying the
// slot id in aux. The analysis is deliberately conservative — it walks the
// straight-line predecessor block and gives up at any join point (jump
// target), non-fall-through instruction, or non-constant reaching definition.
// Calls it cannot prove stay on the string path; semantics never change.
void RewriteKeyedCalls(Program& program, FeatureStore& store) {
  const size_t n = program.insns.size();
  std::vector<char> is_target(n, 0);
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
            call.op = Op::kCallKeyed;
            const KeyId id = store.InternKey(*key);
            // The id is baked into the program, so the slot must never be
            // recycled under it (docs/STORE.md pin contract).
            store.Pin(id);
            call.aux = static_cast<int32_t>(id);
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
      reporter_(options.reporter_capacity),
      retrain_queue_(options.retrain),
      dispatcher_(&reporter_, registry, &retrain_queue_, task_control),
      env_(store, &dispatcher_) {
  dispatcher_.SetStore(store);  // publishes the actions.* failure counters
  dispatcher_.SetMeasureWallTime(options_.measure_wall_time);
  supervisor_.SetStore(store);  // publishes the supervisor.* health keys
  governor_.Configure(options_.governor, store);  // interns engine.governor.*
  // Third pressure input: approximate store bytes — a deterministic function
  // of store contents, so governed differential runs stay replayable.
  governor_.SetBytesProbe([store] { return store->approx_bytes(); });
  pending_changes_.reserve(64);
  drain_batch_.reserve(64);
}

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

Status Engine::Load(CompiledGuardrail guardrail) {
  if (guardrail.name.empty()) {
    return InvalidArgumentError("guardrail has no name");
  }
  // Defense in depth: never trust that the caller verified.
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
  auto monitor = std::make_unique<Monitor>();
  monitor->guardrail = std::move(guardrail);
  monitor->enabled = monitor->guardrail.meta.enabled;
  monitor->generation = next_generation_++;
  const std::string name = monitor->guardrail.name;
  auto existing = monitors_.find(name);
  const bool replacing = existing != monitors_.end();
  if (replacing) {
    // Replace-by-name carry-over (explicit policy): the counters describe
    // the outgoing program version and reset with it, but the
    // violation-protocol clocks describe the monitored property, so they
    // persist — a hot replace can neither bypass an active cooldown nor
    // discard accumulated hysteresis evidence, and a rule fixed while in
    // violation still emits its satisfied edge.
    const MonitorStats& old = existing->second->stats;
    monitor->stats.in_violation = old.in_violation;
    monitor->stats.consecutive_violations = old.consecutive_violations;
    monitor->stats.last_action_time = old.last_action_time;
    // uptime_evals counts the monitored *name*, not the program version.
    monitor->stats.uptime_evals = old.uptime_evals;
    monitor->uptime_published = existing->second->uptime_published;
  }
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
  if (persist_ != nullptr) {
    persist_->MarkDirty();
  }
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
  // The dead monitor's counter keys lose their pins and are handed to the
  // retention manager: with a retention block they age out via the
  // "monitor." namespace TTL instead of leaking. (Adoption is explicit —
  // the write observer only tracks slots as they are written, and nothing
  // writes an unloaded monitor's counters again.)
  if (it->second->uptime_key != kInvalidKeyId) {
    store_->Unpin(it->second->uptime_key);
    retention_.AdoptKey(it->second->uptime_key, now_);
  }
  monitors_.erase(it);  // queued timer entries die via generation mismatch
  supervisor_.OnUnload(name);
  RebuildFunctionIndex();
  if (persist_ != nullptr) {
    persist_->MarkDirty();
  }
  return OkStatus();
}

Status Engine::SetEnabled(const std::string& name, bool enabled) {
  auto it = monitors_.find(name);
  if (it == monitors_.end()) {
    return NotFoundError("no guardrail named '" + name + "'");
  }
  it->second->enabled = enabled;
  if (persist_ != nullptr) {
    persist_->MarkDirty();
  }
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

void Engine::OnStoreWrite(KeyId id) {
  if (watch_hook_count_ == 0) {
    return;  // hot path when no ONCHANGE guardrail is loaded
  }
  if (id >= watch_hooks_.size() || watch_hooks_[id].empty()) {
    return;
  }
  if (evaluating_) {
    // Write performed by a running monitor program: defer (see header).
    pending_changes_.push_back(id);
    return;
  }
  // Copy: Evaluate may load/unload monitors indirectly in future revisions.
  const std::vector<Monitor*> hooked = watch_hooks_[id];
  for (Monitor* monitor : hooked) {
    if (monitor->enabled) {
      ++stats_.change_firings;
      Evaluate(*monitor, now_);
    }
  }
  DrainPendingChanges();
  ApplyPendingRollbacks();
}

void Engine::OnStoreWrite(const StoreWriteInfo& info, const std::string& key) {
  if (retention_.enabled()) {
    retention_.OnWrite(info, key, now_);
  }
  OnStoreWrite(info.id);
}

void Engine::OnStoreWrite(const std::string& key) {
  if (watch_hook_count_ == 0) {
    return;
  }
  const KeyId id = store_->FindKey(key);
  if (id == kInvalidKeyId) {
    return;  // never interned, so certainly unwatched
  }
  OnStoreWrite(id);
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

void Engine::QueueRollback(Monitor& monitor) {
  if (monitor.rollback_queued) {
    return;
  }
  if (monitor.rollback_snapshot == nullptr) {
    // Nothing to restore (first load of this name): clear the request so the
    // monitor isn't skipped forever waiting on an impossible rollback.
    if (monitor.guard != nullptr) {
      monitor.guard->rollback_pending = false;
    }
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
    auto restored = std::make_unique<Monitor>();
    // The snapshot was verified and key-rewritten at its original load, so
    // the restored program is bit-identical to the pre-deploy version; no
    // re-verification or rewrite may touch it here.
    restored->guardrail = std::move(*doomed.rollback_snapshot);
    restored->enabled = restored->guardrail.meta.enabled;
    restored->generation = next_generation_++;
    // Same carry-over policy as a replace: the violation-protocol clocks
    // describe the monitored property and persist across the swap.
    restored->stats.in_violation = doomed.stats.in_violation;
    restored->stats.consecutive_violations = doomed.stats.consecutive_violations;
    restored->stats.last_action_time = doomed.stats.last_action_time;
    restored->guard =
        supervisor_.OnRollback(name, restored->guardrail.meta.health, now_);
    reporter_.Report(ReportRecord{0, now_, ReportKind::kMonitorError,
                                  restored->guardrail.meta.severity, name,
                                  "probation deploy rolled back by supervisor",
                                  {}});
    restored->stats.uptime_evals = doomed.stats.uptime_evals;
    restored->uptime_published = doomed.uptime_published;
    restored->uptime_key = doomed.uptime_key;
    it->second = std::move(restored);
    ArmTimers(*it->second);
    RebuildFunctionIndex();
    if (persist_ != nullptr) {
      persist_->MarkDirty();
    }
    OSGUARD_LOG(kDebug) << "rolled back guardrail '" << name
                        << "' to its pre-deploy version";
  }
}

void Engine::RunActions(Monitor& monitor, const Program& program, SimTime t) {
  env_.UpdateEnvelope(monitor.guardrail.name, monitor.guardrail.meta.severity, t);
  // Supervised monitors run their action programs under the same per-eval
  // budget as the rule; an over-budget action program is killed mid-flight.
  ExecBudget budget;
  const ExecBudget* budget_ptr = nullptr;
  if (monitor.guard != nullptr) {
    const GuardrailHealth& cfg = monitor.guard->config;
    if (cfg.budget_steps > 0 || cfg.budget_ns > 0) {
      budget.max_steps = cfg.budget_steps;
      if (cfg.budget_ns > 0) {
        budget.deadline_wall_ns = WallNowNs() + cfg.budget_ns;
      }
      budget_ptr = &budget;
    }
  }
  const uint64_t failures_before =
      monitor.guard != nullptr ? dispatcher_.failure_count() : 0;
  const int64_t start = options_.measure_wall_time ? WallNowNs() : 0;
  auto result = vm_.Execute(program, env_, budget_ptr);
  if (options_.measure_wall_time) {
    const int64_t elapsed = WallNowNs() - start;
    monitor.stats.action_wall_ns += elapsed;
    stats_.total_wall_ns += elapsed;
  }
  if (!result.ok()) {
    ++monitor.stats.errors;
    ++stats_.errors;
    reporter_.Report(ReportRecord{0, t, ReportKind::kMonitorError,
                                  monitor.guardrail.meta.severity, monitor.guardrail.name,
                                  result.status().ToString(),
                                  {}});
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
    if (events > 0) {
      supervisor_.OnActionFailures(*monitor.guard, monitor.guardrail.name, events, t);
    }
  }
}

void Engine::Evaluate(Monitor& monitor, SimTime t) {
  if (persist_ != nullptr) {
    // Every evaluation moves protocol state (stats, gate counters, EWMAs),
    // so the boundary that follows must commit a frame.
    persist_->MarkDirty();
  }
  // Mark the engine as evaluating so store writes made by this monitor's
  // own programs defer their ONCHANGE processing (no re-entrant evaluation).
  const bool outermost = !evaluating_;
  evaluating_ = true;
  EvaluateInner(monitor, t);
  if (outermost) {
    evaluating_ = false;
    DrainPendingChanges();
  }
}

void Engine::EvaluateInner(Monitor& monitor, SimTime t) {
  const RuleEvalPrep prep = BeginRuleEval(monitor, t);
  if (prep.skip) {
    return;
  }
  env_.UpdateEnvelope(monitor.guardrail.name, monitor.guardrail.meta.severity, t);
  ExecBudget budget;
  const ExecBudget* budget_ptr = nullptr;
  if (prep.budget_steps > 0 || prep.budget_deadline_ns > 0) {
    budget.max_steps = prep.budget_steps;
    budget.deadline_wall_ns = prep.budget_deadline_ns;
    budget_ptr = &budget;
  }
  int64_t steps_before = 0;
  if (monitor.guard != nullptr) {
    steps_before = vm_.stats().insns_executed;
  }
  const int64_t start = options_.measure_wall_time ? WallNowNs() : 0;
  auto result = prep.injected_budget
                    ? Result<Value>(ResourceExhaustedError(
                          "rule of guardrail '" + monitor.guardrail.name +
                          "' aborted by chaos site vm.budget_exhaust"))
                    : vm_.Execute(monitor.guardrail.rule, env_, budget_ptr);
  const int64_t wall_ns = options_.measure_wall_time ? WallNowNs() - start : 0;
  const int64_t steps =
      monitor.guard != nullptr ? vm_.stats().insns_executed - steps_before : 0;
  FinishRuleEval(monitor, t, prep, std::move(result), steps, wall_ns);
}

Engine::RuleEvalPrep Engine::BeginRuleEval(Monitor& monitor, SimTime t) {
  RuleEvalPrep prep;
  if (governor_.enabled()) {
    // Overload ladder first: a shed evaluation must cost nothing, so it
    // skips even the supervisor gate.
    const GovernorDecision decision =
        governor_.Admit(monitor.guardrail.meta.criticality, ++monitor.gov_attempts,
                        monitor.gov_static_epoch);
    if (decision == GovernorDecision::kShed) {
      prep.skip = true;
      return prep;
    }
    if (decision == GovernorDecision::kStatic) {
      // Fail-static: pin this critical monitor's corrective action once as
      // the safe static default for the episode, then suppress evaluation
      // until the ladder de-escalates.
      monitor.gov_static_epoch = governor_.fail_static_epoch();
      governor_.CountStaticApply();
      reporter_.Report(ReportRecord{0, t, ReportKind::kMonitorError,
                                    monitor.guardrail.meta.severity,
                                    monitor.guardrail.name,
                                    "overload governor fail-static: applying corrective default",
                                    {}});
      RunActions(monitor, monitor.guardrail.action, t);
      prep.skip = true;
      return prep;
    }
  }
  if (monitor.guard != nullptr) {
    GuardHealth& guard = *monitor.guard;
    prep.gate = supervisor_.Gate(guard, t);
    if (guard.rollback_pending) {
      QueueRollback(monitor);
      prep.skip = true;
      return prep;
    }
    if (prep.gate == GateDecision::kSkip) {
      prep.skip = true;
      return prep;
    }
  }
  MonitorStats& stats = monitor.stats;
  ++stats.evaluations;
  ++stats.uptime_evals;
  uptime_dirty_ = true;
  ++stats_.evaluations;
  if (monitor.guard != nullptr) {
    const GuardrailHealth& cfg = monitor.guard->config;
    prep.budget_steps = cfg.budget_steps;
    if (cfg.budget_ns > 0) {
      prep.budget_deadline_ns = WallNowNs() + cfg.budget_ns;
    }
    prep.injected_budget = supervisor_.InjectBudgetExhaust(t);
  }
  return prep;
}

void Engine::FinishRuleEval(Monitor& monitor, SimTime t, const RuleEvalPrep& prep,
                            Result<Value> result, int64_t steps, int64_t wall_ns) {
  MonitorStats& stats = monitor.stats;
  if (options_.measure_wall_time) {
    stats.rule_wall_ns += wall_ns;
    stats_.total_wall_ns += wall_ns;
  }
  GuardHealth* guard = monitor.guard;
  if (guard != nullptr) {
    EvalOutcome outcome = EvalOutcome::kOk;
    if (!result.ok()) {
      outcome = result.status().code() == ErrorCode::kResourceExhausted
                    ? EvalOutcome::kBudgetExceeded
                    : EvalOutcome::kError;
    }
    supervisor_.OnEvalResult(*guard, monitor.guardrail.name, prep.gate, outcome, steps, t);
  }

  if (!result.ok()) {
    // "No decision": a faulty monitor must neither crash the kernel nor
    // trigger corrective actions.
    ++stats.errors;
    ++stats_.errors;
    reporter_.Report(ReportRecord{0, t, ReportKind::kMonitorError,
                                  monitor.guardrail.meta.severity, monitor.guardrail.name,
                                  result.status().ToString(),
                                  {}});
  } else if (TruthyValue(result.value())) {
    // Property holds.
    if (stats.in_violation) {
      stats.in_violation = false;
      ++stats.satisfy_firings;
      reporter_.Report(ReportRecord{0, t, ReportKind::kSatisfied,
                                    monitor.guardrail.meta.severity, monitor.guardrail.name,
                                    "property satisfied again",
                                    {}});
      if (guard != nullptr) {
        supervisor_.OnViolationFlip(*guard, monitor.guardrail.name, t);
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
        reporter_.Report(ReportRecord{0, t, ReportKind::kViolation,
                                      monitor.guardrail.meta.severity,
                                      monitor.guardrail.name,
                                      "rule violated",
                                      {}});
        if (entered_violation && guard != nullptr) {
          supervisor_.OnViolationFlip(*guard, monitor.guardrail.name, t);
        }
        RunActions(monitor, monitor.guardrail.action, t);
      }
    }
  }

  // Quarantine / rollback tail — runs after *every* non-skipped evaluation,
  // including the error path above.
  if (guard != nullptr) {
    if (supervisor_.ConsumeQuarantineAction(*guard)) {
      // The breaker just opened: apply the corrective action once as the
      // quarantine fail-safe default, then suppress evals until a probe
      // reinstates the guardrail. (The breaker is open, so any failures the
      // default itself reports cannot re-trip it.)
      reporter_.Report(ReportRecord{0, t, ReportKind::kMonitorError,
                                    monitor.guardrail.meta.severity,
                                    monitor.guardrail.name,
                                    "quarantined by supervisor; applying corrective default",
                                    {}});
      RunActions(monitor, monitor.guardrail.action, t);
    }
    if (guard->rollback_pending) {
      QueueRollback(monitor);
    }
  }
}

// --- Crash consistency (osguard::persist) ---

namespace {

// v2 appended the overload-governor ladder state (global + per-monitor): a
// panic landing mid-degradation must warm-restart into the same ladder state.
// v3 added the governor's bytes_ewma and the retention image; v4 dropped the
// native-tier counters and per-monitor promotion state.
constexpr uint32_t kImageVersion = 4;

void WriteReportRecord(ByteWriter& w, const ReportRecord& record) {
  w.U64(record.sequence);
  w.I64(record.time);
  w.U8(static_cast<uint8_t>(record.kind));
  w.U8(static_cast<uint8_t>(record.severity));
  w.Str(record.guardrail);
  w.Str(record.message);
  w.U32(static_cast<uint32_t>(record.payload.size()));
  for (const Value& v : record.payload) {
    WriteValue(w, v);
  }
}

Result<ReportRecord> ReadReportRecord(ByteReader& r) {
  ReportRecord record;
  OSGUARD_ASSIGN_OR_RETURN(record.sequence, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(record.time, r.I64());
  OSGUARD_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
  if (kind > static_cast<uint8_t>(ReportKind::kMonitorError)) {
    return InvalidArgumentError("report record: bad kind " + std::to_string(kind));
  }
  record.kind = static_cast<ReportKind>(kind);
  OSGUARD_ASSIGN_OR_RETURN(uint8_t severity, r.U8());
  if (severity > static_cast<uint8_t>(Severity::kCritical)) {
    return InvalidArgumentError("report record: bad severity " + std::to_string(severity));
  }
  record.severity = static_cast<Severity>(severity);
  OSGUARD_ASSIGN_OR_RETURN(std::string_view guardrail, r.Str());
  record.guardrail = std::string(guardrail);
  OSGUARD_ASSIGN_OR_RETURN(std::string_view message, r.Str());
  record.message = std::string(message);
  OSGUARD_ASSIGN_OR_RETURN(uint32_t payload_count, r.U32());
  if (payload_count > r.remaining()) {
    return InvalidArgumentError("report record: payload count " +
                                std::to_string(payload_count) + " exceeds input");
  }
  record.payload.reserve(payload_count);
  for (uint32_t i = 0; i < payload_count; ++i) {
    OSGUARD_ASSIGN_OR_RETURN(Value v, ReadValue(r));
    record.payload.push_back(std::move(v));
  }
  return record;
}

// Per-monitor image payload, decoded whether or not the monitor still
// exists (the bytes must be consumed either way).
struct MonitorImage {
  std::string name;
  bool enabled = true;
  MonitorStats stats;
  bool has_guard = false;
  GuardHealth guard;  // config / export keys unused; protocol fields only
  uint64_t gov_attempts = 0;
  uint64_t gov_static_epoch = 0;
};

void WriteGovernorImage(ByteWriter& w, const GovernorImage& g) {
  w.U8(g.mode);
  w.U8(g.primed ? 1 : 0);
  w.F64(g.cost_ewma);
  w.F64(g.gap_ewma);
  w.F64(g.depth_ewma);
  w.I64(g.last_now);
  w.U64(g.last_evals);
  w.I64(g.last_wall_ns);
  w.F64(g.bytes_ewma);
  w.I64(g.streak_up);
  w.I64(g.streak_down);
  w.U64(g.fail_static_epoch);
  w.U64(g.stats.callouts);
  w.U64(g.stats.transitions);
  w.U64(g.stats.escalations);
  w.U64(g.stats.deescalations);
  w.U64(g.stats.sheds_besteffort);
  w.U64(g.stats.sheds_standard);
  w.U64(g.stats.sampled_evals);
  w.U64(g.stats.static_applies);
  w.U64(g.stats.static_suppressed);
  w.U64(g.stats.critical_sheds);
  w.U8(g.keys_published ? 1 : 0);
  w.I64(g.pub_mode);
  w.U64(g.pub_transitions);
  w.U64(g.pub_sheds);
  w.U64(g.pub_static);
}

Status ReadGovernorImage(ByteReader& r, GovernorImage* g) {
  OSGUARD_ASSIGN_OR_RETURN(g->mode, r.U8());
  if (g->mode > static_cast<uint8_t>(GovernorMode::kFailStatic)) {
    return InvalidArgumentError("image: bad governor mode " + std::to_string(g->mode));
  }
  OSGUARD_ASSIGN_OR_RETURN(uint8_t primed, r.U8());
  g->primed = primed != 0;
  OSGUARD_ASSIGN_OR_RETURN(g->cost_ewma, r.F64());
  OSGUARD_ASSIGN_OR_RETURN(g->gap_ewma, r.F64());
  OSGUARD_ASSIGN_OR_RETURN(g->depth_ewma, r.F64());
  OSGUARD_ASSIGN_OR_RETURN(g->last_now, r.I64());
  OSGUARD_ASSIGN_OR_RETURN(g->last_evals, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(g->last_wall_ns, r.I64());
  OSGUARD_ASSIGN_OR_RETURN(g->bytes_ewma, r.F64());
  OSGUARD_ASSIGN_OR_RETURN(g->streak_up, r.I64());
  OSGUARD_ASSIGN_OR_RETURN(g->streak_down, r.I64());
  OSGUARD_ASSIGN_OR_RETURN(g->fail_static_epoch, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(g->stats.callouts, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(g->stats.transitions, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(g->stats.escalations, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(g->stats.deescalations, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(g->stats.sheds_besteffort, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(g->stats.sheds_standard, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(g->stats.sampled_evals, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(g->stats.static_applies, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(g->stats.static_suppressed, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(g->stats.critical_sheds, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(uint8_t keys_published, r.U8());
  g->keys_published = keys_published != 0;
  OSGUARD_ASSIGN_OR_RETURN(g->pub_mode, r.I64());
  OSGUARD_ASSIGN_OR_RETURN(g->pub_transitions, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(g->pub_sheds, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(g->pub_static, r.U64());
  return OkStatus();
}

void WriteRetentionImage(ByteWriter& w, const RetentionImage& ret) {
  w.U64(ret.cursor);
  w.U64(ret.stats.reclaimed_idle);
  w.U64(ret.stats.reclaimed_quota);
  w.U64(ret.stats.quota_breaches);
  w.U64(ret.stats.chaos_storms);
  w.U64(ret.stats.chaos_breaches);
  w.U64(ret.stats.stale_tracks_fixed);
  w.U8(ret.keys_published ? 1 : 0);
  w.U64(ret.pub_reclaimed);
  w.U64(ret.pub_evictions);
  w.U64(ret.pub_breaches);
  w.U64(ret.pub_bytes_total);
  w.U64(ret.pub_live_keys);
  w.U32(static_cast<uint32_t>(ret.pub_ns_keys.size()));
  for (size_t i = 0; i < ret.pub_ns_keys.size(); ++i) {
    w.U64(ret.pub_ns_keys[i]);
    w.U64(ret.pub_ns_bytes[i]);
  }
}

Status ReadRetentionImage(ByteReader& r, RetentionImage* ret) {
  OSGUARD_ASSIGN_OR_RETURN(ret->cursor, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(ret->stats.reclaimed_idle, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(ret->stats.reclaimed_quota, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(ret->stats.quota_breaches, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(ret->stats.chaos_storms, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(ret->stats.chaos_breaches, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(ret->stats.stale_tracks_fixed, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(uint8_t published, r.U8());
  ret->keys_published = published != 0;
  OSGUARD_ASSIGN_OR_RETURN(ret->pub_reclaimed, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(ret->pub_evictions, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(ret->pub_breaches, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(ret->pub_bytes_total, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(ret->pub_live_keys, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(uint32_t ns_count, r.U32());
  ret->pub_ns_keys.resize(ns_count);
  ret->pub_ns_bytes.resize(ns_count);
  for (uint32_t i = 0; i < ns_count; ++i) {
    OSGUARD_ASSIGN_OR_RETURN(ret->pub_ns_keys[i], r.U64());
    OSGUARD_ASSIGN_OR_RETURN(ret->pub_ns_bytes[i], r.U64());
  }
  return OkStatus();
}

void WriteGuardHealth(ByteWriter& w, const GuardHealth& g) {
  w.U8(static_cast<uint8_t>(g.state));
  w.F64(g.fail_ewma);
  w.F64(g.cost_ewma_steps);
  w.I64(g.failure_streak);
  w.U64(g.open_triggers);
  w.I64(g.probe_successes);
  w.U32(static_cast<uint32_t>(g.flips.size()));
  for (const SimTime flip : g.flips) {
    w.I64(flip);
  }
  w.U8(g.in_probation ? 1 : 0);
  w.I64(g.probation_until);
  w.F64(g.baseline_fail_ewma);
  w.U8(g.rollback_pending ? 1 : 0);
  w.U8(g.quarantine_action_pending ? 1 : 0);
  w.U64(g.evals);
  w.U64(g.budget_aborts);
  w.U64(g.eval_errors);
  w.U64(g.action_failures);
  w.U64(g.flap_events);
  w.U64(g.skipped);
  w.U64(g.probes);
  w.U64(g.probe_failures);
  w.U64(g.quarantines);
  w.U64(g.reinstatements);
}

Status ReadGuardHealth(ByteReader& r, GuardHealth* g) {
  OSGUARD_ASSIGN_OR_RETURN(uint8_t state, r.U8());
  if (state > static_cast<uint8_t>(BreakerState::kHalfOpen)) {
    return InvalidArgumentError("image: bad breaker state " + std::to_string(state));
  }
  g->state = static_cast<BreakerState>(state);
  OSGUARD_ASSIGN_OR_RETURN(g->fail_ewma, r.F64());
  OSGUARD_ASSIGN_OR_RETURN(g->cost_ewma_steps, r.F64());
  OSGUARD_ASSIGN_OR_RETURN(int64_t streak, r.I64());
  g->failure_streak = static_cast<int>(streak);
  OSGUARD_ASSIGN_OR_RETURN(g->open_triggers, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(int64_t probe_successes, r.I64());
  g->probe_successes = static_cast<int>(probe_successes);
  OSGUARD_ASSIGN_OR_RETURN(uint32_t flip_count, r.U32());
  if (flip_count > r.remaining()) {
    return InvalidArgumentError("image: flip count " + std::to_string(flip_count) +
                                " exceeds input");
  }
  g->flips.clear();
  for (uint32_t i = 0; i < flip_count; ++i) {
    OSGUARD_ASSIGN_OR_RETURN(SimTime flip, r.I64());
    g->flips.push_back(flip);
  }
  OSGUARD_ASSIGN_OR_RETURN(uint8_t in_probation, r.U8());
  g->in_probation = in_probation != 0;
  OSGUARD_ASSIGN_OR_RETURN(g->probation_until, r.I64());
  OSGUARD_ASSIGN_OR_RETURN(g->baseline_fail_ewma, r.F64());
  OSGUARD_ASSIGN_OR_RETURN(uint8_t rollback_pending, r.U8());
  g->rollback_pending = rollback_pending != 0;
  OSGUARD_ASSIGN_OR_RETURN(uint8_t quarantine_pending, r.U8());
  g->quarantine_action_pending = quarantine_pending != 0;
  OSGUARD_ASSIGN_OR_RETURN(g->evals, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(g->budget_aborts, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(g->eval_errors, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(g->action_failures, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(g->flap_events, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(g->skipped, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(g->probes, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(g->probe_failures, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(g->quarantines, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(g->reinstatements, r.U64());
  return OkStatus();
}

Status ReadMonitorImage(ByteReader& r, MonitorImage* m) {
  OSGUARD_ASSIGN_OR_RETURN(std::string_view name, r.Str());
  m->name = std::string(name);
  OSGUARD_ASSIGN_OR_RETURN(uint8_t enabled, r.U8());
  m->enabled = enabled != 0;
  MonitorStats& s = m->stats;
  OSGUARD_ASSIGN_OR_RETURN(s.evaluations, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(s.violations, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(s.action_firings, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(s.satisfy_firings, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(s.errors, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(s.suppressed_hysteresis, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(s.suppressed_cooldown, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(s.rule_wall_ns, r.I64());
  OSGUARD_ASSIGN_OR_RETURN(s.action_wall_ns, r.I64());
  OSGUARD_ASSIGN_OR_RETURN(uint8_t in_violation, r.U8());
  s.in_violation = in_violation != 0;
  OSGUARD_ASSIGN_OR_RETURN(int64_t consecutive, r.I64());
  s.consecutive_violations = static_cast<int>(consecutive);
  OSGUARD_ASSIGN_OR_RETURN(s.last_action_time, r.I64());
  OSGUARD_ASSIGN_OR_RETURN(s.uptime_evals, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(uint8_t has_guard, r.U8());
  m->has_guard = has_guard != 0;
  if (m->has_guard) {
    OSGUARD_RETURN_IF_ERROR(ReadGuardHealth(r, &m->guard));
  }
  OSGUARD_ASSIGN_OR_RETURN(m->gov_attempts, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(m->gov_static_epoch, r.U64());
  return OkStatus();
}

}  // namespace

void Engine::SetPersist(PersistManager* persist) {
  persist_ = persist;
  if (persist_ != nullptr) {
    persist_->AttachStore(store_);
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
  governor_.OnCalloutEnd(now_, stats_.evaluations, stats_.total_wall_ns);
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
  ByteWriter w(out);
  w.U32(kImageVersion);
  w.I64(now_);
  w.U64(next_tiebreak_);
  w.U64(stats_.timer_firings);
  w.U64(stats_.function_firings);
  w.U64(stats_.change_firings);
  w.U64(stats_.change_cascade_suppressed);
  w.U64(stats_.evaluations);
  w.U64(stats_.violations);
  w.U64(stats_.action_firings);
  w.U64(stats_.errors);
  w.U64(stats_.callouts_dropped);
  w.U64(stats_.callouts_delayed);
  w.I64(stats_.total_wall_ns);
  const ActionStats actions = dispatcher_.stats();
  w.U64(actions.reports);
  w.U64(actions.replaces);
  w.U64(actions.replace_noops);
  w.U64(actions.retrains_requested);
  w.U64(actions.retrains_suppressed);
  w.U64(actions.deprioritizes);
  w.U64(actions.failures);
  w.U64(actions.retries);
  w.U64(actions.fallbacks);
  w.U64(actions.injected_failures);
  w.U64(actions.dispatches);
  w.I64(actions.latency_min_ns);
  w.I64(actions.latency_max_ns);
  w.I64(actions.latency_total_ns);
  const ReporterSnapshot reports = reporter_.SnapshotCounters();
  w.U64(reports.next_sequence);
  w.U32(static_cast<uint32_t>(reports.per_guardrail.size()));
  for (const auto& [guardrail, count] : reports.per_guardrail) {
    w.Str(guardrail);
    w.U64(count);
  }
  w.U32(static_cast<uint32_t>(reports.per_kind.size()));
  for (const auto& [kind, count] : reports.per_kind) {
    w.U32(static_cast<uint32_t>(kind));
    w.U64(count);
  }
  const RetrainQueueState retrain = retrain_queue_.ExportState();
  w.U32(static_cast<uint32_t>(retrain.queue.size()));
  for (const RetrainRequest& request : retrain.queue) {
    w.Str(request.model);
    w.Str(request.data_key);
    w.I64(request.requested_at);
  }
  w.U32(static_cast<uint32_t>(retrain.last_accepted.size()));
  for (const auto& [model, at] : retrain.last_accepted) {
    w.Str(model);
    w.I64(at);
  }
  w.U32(static_cast<uint32_t>(retrain.queued_count.size()));
  for (const auto& [model, count] : retrain.queued_count) {
    w.Str(model);
    w.I64(count);
  }
  w.U64(retrain.stats.accepted);
  w.U64(retrain.stats.throttled);
  w.U64(retrain.stats.coalesced);
  w.U64(retrain.stats.overflowed);
  w.U64(retrain.stats.drained);
  const SupervisorStats& sup = supervisor_.stats();
  w.U64(sup.supervised);
  w.U64(sup.budget_aborts);
  w.U64(sup.eval_errors);
  w.U64(sup.flap_events);
  w.U64(sup.quarantines);
  w.U64(sup.skipped_evals);
  w.U64(sup.probes);
  w.U64(sup.probe_failures);
  w.U64(sup.reinstatements);
  w.U64(sup.rollbacks);
  w.U64(sup.commits);
  WriteGovernorImage(w, governor_.ExportState());
  w.U32(static_cast<uint32_t>(monitors_.size()));
  for (const auto& [name, monitor] : monitors_) {  // std::map: sorted order
    w.Str(name);
    w.U8(monitor->enabled ? 1 : 0);
    const MonitorStats& s = monitor->stats;
    w.U64(s.evaluations);
    w.U64(s.violations);
    w.U64(s.action_firings);
    w.U64(s.satisfy_firings);
    w.U64(s.errors);
    w.U64(s.suppressed_hysteresis);
    w.U64(s.suppressed_cooldown);
    w.I64(s.rule_wall_ns);
    w.I64(s.action_wall_ns);
    w.U8(s.in_violation ? 1 : 0);
    w.I64(s.consecutive_violations);
    w.I64(s.last_action_time);
    w.U64(s.uptime_evals);
    w.U8(monitor->guard != nullptr ? 1 : 0);
    if (monitor->guard != nullptr) {
      WriteGuardHealth(w, *monitor->guard);
    }
    w.U64(monitor->gov_attempts);
    w.U64(monitor->gov_static_epoch);
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
  w.U32(static_cast<uint32_t>(live.size()));
  for (const TimerEntry* entry : live) {
    w.I64(entry->due);
    w.U64(entry->tiebreak);
    w.Str(entry->monitor_name);
    w.U64(entry->trigger_index);
  }
  WriteRetentionImage(w, retention_.ExportState());
}

Status Engine::ApplyImage(std::string_view image) {
  ByteReader r(image);
  OSGUARD_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (version != kImageVersion) {
    return InvalidArgumentError("image version " + std::to_string(version) +
                                " is not supported (expected " +
                                std::to_string(kImageVersion) + ")");
  }
  OSGUARD_ASSIGN_OR_RETURN(now_, r.I64());
  OSGUARD_ASSIGN_OR_RETURN(uint64_t next_tiebreak, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(stats_.timer_firings, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(stats_.function_firings, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(stats_.change_firings, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(stats_.change_cascade_suppressed, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(stats_.evaluations, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(stats_.violations, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(stats_.action_firings, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(stats_.errors, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(stats_.callouts_dropped, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(stats_.callouts_delayed, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(stats_.total_wall_ns, r.I64());
  ActionStats actions;
  OSGUARD_ASSIGN_OR_RETURN(actions.reports, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(actions.replaces, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(actions.replace_noops, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(actions.retrains_requested, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(actions.retrains_suppressed, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(actions.deprioritizes, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(actions.failures, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(actions.retries, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(actions.fallbacks, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(actions.injected_failures, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(actions.dispatches, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(actions.latency_min_ns, r.I64());
  OSGUARD_ASSIGN_OR_RETURN(actions.latency_max_ns, r.I64());
  OSGUARD_ASSIGN_OR_RETURN(actions.latency_total_ns, r.I64());
  dispatcher_.RestoreStats(actions);
  ReporterSnapshot reports;
  OSGUARD_ASSIGN_OR_RETURN(reports.next_sequence, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(uint32_t guardrail_count, r.U32());
  for (uint32_t i = 0; i < guardrail_count; ++i) {
    OSGUARD_ASSIGN_OR_RETURN(std::string_view guardrail, r.Str());
    OSGUARD_ASSIGN_OR_RETURN(uint64_t count, r.U64());
    reports.per_guardrail.emplace_back(std::string(guardrail), count);
  }
  OSGUARD_ASSIGN_OR_RETURN(uint32_t kind_count, r.U32());
  for (uint32_t i = 0; i < kind_count; ++i) {
    OSGUARD_ASSIGN_OR_RETURN(uint32_t kind, r.U32());
    OSGUARD_ASSIGN_OR_RETURN(uint64_t count, r.U64());
    reports.per_kind.emplace_back(static_cast<int>(kind), count);
  }
  reporter_.RestoreCounters(reports);
  RetrainQueueState retrain;
  OSGUARD_ASSIGN_OR_RETURN(uint32_t queue_count, r.U32());
  for (uint32_t i = 0; i < queue_count; ++i) {
    RetrainRequest request;
    OSGUARD_ASSIGN_OR_RETURN(std::string_view model, r.Str());
    request.model = std::string(model);
    OSGUARD_ASSIGN_OR_RETURN(std::string_view data_key, r.Str());
    request.data_key = std::string(data_key);
    OSGUARD_ASSIGN_OR_RETURN(request.requested_at, r.I64());
    retrain.queue.push_back(std::move(request));
  }
  OSGUARD_ASSIGN_OR_RETURN(uint32_t accepted_count, r.U32());
  for (uint32_t i = 0; i < accepted_count; ++i) {
    OSGUARD_ASSIGN_OR_RETURN(std::string_view model, r.Str());
    OSGUARD_ASSIGN_OR_RETURN(SimTime at, r.I64());
    retrain.last_accepted.emplace_back(std::string(model), at);
  }
  OSGUARD_ASSIGN_OR_RETURN(uint32_t queued_count, r.U32());
  for (uint32_t i = 0; i < queued_count; ++i) {
    OSGUARD_ASSIGN_OR_RETURN(std::string_view model, r.Str());
    OSGUARD_ASSIGN_OR_RETURN(int64_t count, r.I64());
    retrain.queued_count.emplace_back(std::string(model), static_cast<int>(count));
  }
  OSGUARD_ASSIGN_OR_RETURN(retrain.stats.accepted, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(retrain.stats.throttled, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(retrain.stats.coalesced, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(retrain.stats.overflowed, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(retrain.stats.drained, r.U64());
  retrain_queue_.RestoreState(retrain);
  SupervisorStats sup;
  OSGUARD_ASSIGN_OR_RETURN(sup.supervised, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(sup.budget_aborts, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(sup.eval_errors, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(sup.flap_events, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(sup.quarantines, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(sup.skipped_evals, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(sup.probes, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(sup.probe_failures, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(sup.reinstatements, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(sup.rollbacks, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(sup.commits, r.U64());
  supervisor_.RestoreStats(sup);
  GovernorImage gov;
  OSGUARD_RETURN_IF_ERROR(ReadGovernorImage(r, &gov));
  governor_.RestoreState(gov);
  OSGUARD_ASSIGN_OR_RETURN(uint32_t monitor_count, r.U32());
  for (uint32_t i = 0; i < monitor_count; ++i) {
    MonitorImage m;
    OSGUARD_RETURN_IF_ERROR(ReadMonitorImage(r, &m));
    auto it = monitors_.find(m.name);
    if (it == monitors_.end()) {
      OSGUARD_LOG(kWarning) << "persist: image carries monitor '" << m.name
                            << "' which is not loaded; skipping its state";
      continue;
    }
    Monitor& monitor = *it->second;
    monitor.enabled = m.enabled;
    monitor.stats = m.stats;
    monitor.uptime_published = m.stats.uptime_evals;
    // Governor per-monitor state: the sampling stride position and the
    // fail-static episode already pinned must survive a warm restart, or the
    // resumed run would re-apply the static default / shift the stride.
    monitor.gov_attempts = m.gov_attempts;
    monitor.gov_static_epoch = m.gov_static_epoch;
    if (m.has_guard) {
      if (monitor.guard == nullptr) {
        OSGUARD_LOG(kWarning)
            << "persist: image carries supervisor state for '" << m.name
            << "' but the reloaded spec does not supervise it; skipping";
      } else {
        GuardHealth& g = *monitor.guard;
        g.state = m.guard.state;
        g.fail_ewma = m.guard.fail_ewma;
        g.cost_ewma_steps = m.guard.cost_ewma_steps;
        g.failure_streak = m.guard.failure_streak;
        g.open_triggers = m.guard.open_triggers;
        g.probe_successes = m.guard.probe_successes;
        g.flips = m.guard.flips;
        g.in_probation = m.guard.in_probation;
        g.probation_until = m.guard.probation_until;
        g.baseline_fail_ewma = m.guard.baseline_fail_ewma;
        g.rollback_pending = m.guard.rollback_pending;
        g.quarantine_action_pending = m.guard.quarantine_action_pending;
        g.evals = m.guard.evals;
        g.budget_aborts = m.guard.budget_aborts;
        g.eval_errors = m.guard.eval_errors;
        g.action_failures = m.guard.action_failures;
        g.flap_events = m.guard.flap_events;
        g.skipped = m.guard.skipped;
        g.probes = m.guard.probes;
        g.probe_failures = m.guard.probe_failures;
        g.quarantines = m.guard.quarantines;
        g.reinstatements = m.guard.reinstatements;
      }
    }
  }
  // The timer queue is replaced wholesale: load-time arming described a cold
  // start, the image describes the committed schedule. Entries are remapped
  // to the current monitor generations.
  OSGUARD_ASSIGN_OR_RETURN(uint32_t timer_count, r.U32());
  decltype(timers_) timers;
  for (uint32_t i = 0; i < timer_count; ++i) {
    TimerEntry entry;
    OSGUARD_ASSIGN_OR_RETURN(entry.due, r.I64());
    OSGUARD_ASSIGN_OR_RETURN(entry.tiebreak, r.U64());
    OSGUARD_ASSIGN_OR_RETURN(std::string_view monitor_name, r.Str());
    entry.monitor_name = std::string(monitor_name);
    OSGUARD_ASSIGN_OR_RETURN(entry.trigger_index, r.U64());
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
  RetentionImage ret;
  OSGUARD_RETURN_IF_ERROR(ReadRetentionImage(r, &ret));
  retention_.RestoreState(ret);
  if (!r.done()) {
    return InvalidArgumentError("image: " + std::to_string(r.remaining()) +
                                " trailing bytes");
  }
  timers_ = std::move(timers);
  next_tiebreak_ = next_tiebreak;
  // The store holds the committed uptime exports already (via slot dump +
  // op replay); the restored counters match them, so nothing is stale.
  uptime_dirty_ = false;
  return OkStatus();
}

void Engine::EncodeReportsSince(uint64_t from, std::string* out) const {
  const size_t count_at = out->size();
  ByteWriter w(out);
  w.U32(0);  // record count
  uint32_t count = 0;
  reporter_.ForEachRecordSince(from, [&](const ReportRecord& record) {
    WriteReportRecord(w, record);
    ++count;
  });
  w.PatchU32(count_at, count);
}

std::string Engine::EncodeReportRing() const {
  std::string out;
  EncodeReportsSince(0, &out);
  return out;
}

Status Engine::ApplyReportBlob(std::string_view blob) {
  ByteReader r(blob);
  OSGUARD_ASSIGN_OR_RETURN(uint32_t count, r.U32());
  for (uint32_t i = 0; i < count; ++i) {
    OSGUARD_ASSIGN_OR_RETURN(ReportRecord record, ReadReportRecord(r));
    reporter_.RestoreRecord(std::move(record));
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
  store_->SetObserversSuppressed(true);
  store_->RestoreSlots(state.base.store);
  Status status = OkStatus();
  if (!state.base.report_ring.empty()) {
    status = ApplyReportBlob(state.base.report_ring);
  }
  std::string_view final_image = state.base.image;
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
    if (!frame.image.empty()) {
      final_image = frame.image;
    }
  }
  if (status.ok() && !final_image.empty()) {
    status = ApplyImage(final_image);
  }
  store_->SetObserversSuppressed(false);
  OSGUARD_RETURN_IF_ERROR(Annotate(status, "warm restart failed"));
  // Replay ran with observers suppressed, so the retention manager saw none
  // of the writes. Rebuild its membership and stamps from the restored store
  // (deterministic: both sides of a differential restore the same slots).
  retention_.ResyncAfterRestore(now_);
  last_report_mark_ = reporter_.total_reports();
  return state.info;
}

}  // namespace osguard
