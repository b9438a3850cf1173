// The guardrail engine: owns loaded monitors, fires triggers, evaluates rule
// programs, applies hysteresis/cooldown, and runs action programs.
//
// This is the in-kernel "guardrail monitor" runtime of §3.3, hosted by the
// simulator. The kernel (simulated or test harness) drives it through two
// callouts:
//
//   * AdvanceTo(t)        — simulated time progressed; fire due TIMER
//                           triggers in timestamp order.
//   * OnFunctionCall(f,t) — instrumented kernel function `f` was invoked;
//                           fire FUNCTION-triggered monitors.
//
// Each firing of a monitor's trigger ends in exactly one outcome, decided in
// this order: the overload governor sheds it, or pins the corrective action
// as the default once per fail-static episode; the supervisor skips it
// (breaker open, or a rollback pending); or the rule program runs, under the
// supervisor's step cap, and its verdict decides:
//   rule true  -> property holds. If the monitor was in violation, run the
//                 on_satisfy program (if any) and emit a kSatisfied report.
//   rule false -> violation. After `hysteresis` consecutive violations and
//                 subject to `cooldown` between firings, run the action
//                 program and emit a kViolation report.
//   rule error -> counted, reported as kMonitorError; treated as "no
//                 decision" (neither violation nor satisfaction). A faulty
//                 monitor never crashes the kernel and never fires actions.
// After any verdict, a supervised monitor whose breaker just opened applies
// the corrective action once as the quarantine default, and a failed
// probation deploy queues its rollback.
//
// Monitors can be loaded, replaced (same name), disabled, and unloaded at
// run time — the incremental-deployment property of §3.3, and the
// "update guardrails at runtime without requiring a kernel reboot" question
// of §6.

#ifndef SRC_RUNTIME_ENGINE_H_
#define SRC_RUNTIME_ENGINE_H_

#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/actions/dispatcher.h"
#include "src/actions/policy_registry.h"
#include "src/chaos/chaos.h"
#include "src/actions/report.h"
#include "src/actions/retrain.h"
#include "src/actions/task_control.h"
#include "src/persist/persist.h"
#include "src/runtime/governor/governor.h"
#include "src/runtime/retention.h"
#include "src/runtime/helper_env.h"
#include "src/store/feature_store.h"
#include "src/supervisor/supervisor.h"
#include "src/support/hash.h"
#include "src/vm/compiler.h"
#include "src/vm/vm.h"

namespace osguard {

// Per-monitor counters. Three lifecycles touch these fields, with different
// survival rules (pinned by tests/persist_test.cc, MonitorStatsSemantics):
//
//   * cold start  — everything zero; uptime_evals == evaluations.
//   * hot replace — the counters describe the outgoing program version and
//     reset with it. Only the violation-protocol clocks (in_violation,
//     consecutive_violations, last_action_time) and uptime_evals (which
//     describes the monitored *name*, not the program version) carry over.
//   * warm restart (osguard::persist) — every field is restored verbatim
//     except the two host-clock costs (rule_wall_ns, action_wall_ns), which
//     are process-local and restart from zero: no value read from the host
//     clock enters the engine image or the feature store.
struct MonitorStats {
  uint64_t evaluations = 0;
  uint64_t violations = 0;            // evaluations where the rule was false
  uint64_t action_firings = 0;        // times the action program ran
  uint64_t satisfy_firings = 0;       // times the on_satisfy program ran
  uint64_t errors = 0;                // rule/action program faults
  uint64_t suppressed_hysteresis = 0; // violations absorbed before threshold
  uint64_t suppressed_cooldown = 0;   // firings blocked by cooldown
  int64_t rule_wall_ns = 0;           // host-clock cost of rule evaluations
  int64_t action_wall_ns = 0;         // host-clock cost of action programs
  bool in_violation = false;
  int consecutive_violations = 0;
  SimTime last_action_time = -1;
  // Evaluations across every program version loaded under this name —
  // survives hot replaces (unlike `evaluations`) and warm restarts alike.
  // Exported as the `monitor.<name>.uptime_evals` store key at callout
  // boundaries.
  uint64_t uptime_evals = 0;

  // The fields a warm restart restores, in image order (src/persist/wire.h):
  // every field but the two host-clock costs.
  template <class Io, class Self>
  static void PersistFields(Io& io, Self& s) {
    io.U64(s.evaluations);
    io.U64(s.violations);
    io.U64(s.action_firings);
    io.U64(s.satisfy_firings);
    io.U64(s.errors);
    io.U64(s.suppressed_hysteresis);
    io.U64(s.suppressed_cooldown);
    io.Bool(s.in_violation);
    io.I64(s.consecutive_violations);
    io.I64(s.last_action_time);
    io.U64(s.uptime_evals);
  }
};

struct EngineStats {
  uint64_t timer_firings = 0;
  uint64_t function_firings = 0;
  uint64_t change_firings = 0;          // ONCHANGE trigger evaluations
  uint64_t change_cascade_suppressed = 0;  // deferred writes dropped at the budget
  uint64_t evaluations = 0;
  uint64_t violations = 0;
  uint64_t action_firings = 0;
  uint64_t errors = 0;
  uint64_t callouts_dropped = 0;  // FUNCTION callouts eaten by the chaos layer
  uint64_t callouts_delayed = 0;  // FUNCTION callouts time-shifted by chaos
  // Rule + action host-clock cost across monitors. Process-local like the
  // per-monitor costs: never journaled, zero after a warm restart.
  int64_t total_wall_ns = 0;

  // Every field but total_wall_ns, in image order (src/persist/wire.h).
  template <class Io, class Self>
  static void PersistFields(Io& io, Self& s) {
    io.U64(s.timer_firings);
    io.U64(s.function_firings);
    io.U64(s.change_firings);
    io.U64(s.change_cascade_suppressed);
    io.U64(s.evaluations);
    io.U64(s.violations);
    io.U64(s.action_firings);
    io.U64(s.errors);
    io.U64(s.callouts_dropped);
    io.U64(s.callouts_delayed);
  }
};

struct EngineOptions {
  RetrainQueueOptions retrain;
  // Overload governor (src/runtime/governor): load shedding by criticality
  // class when callout pressure spikes. Off by default (off == absent).
  GovernorOptions governor;
};

class Engine {
 public:
  // `store` and `registry` are borrowed; `task_control` may be null. The
  // engine installs itself as the store's observer (FeatureStore::
  // SetObserver), so every committed mutation reaches it with no wiring:
  // it is journaled to the attached persist manager, and a write then
  // stamps retention's last-write clock and fires the ONCHANGE triggers
  // watching its key. One engine per store: the destructor clears the
  // observer, so destroy an engine before building the next on its store.
  Engine(FeatureStore* store, PolicyRegistry* registry, TaskControl* task_control = nullptr,
         EngineOptions options = {});
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // --- Loading ---

  // Installs a compiled guardrail. Re-loading an existing name atomically
  // replaces it: triggers are re-armed from the current time and the
  // counters reset (they describe the outgoing program version), but the
  // violation-protocol clocks — in_violation, consecutive_violations,
  // last_action_time — persist, so a hot replace can neither bypass an
  // active cooldown nor discard accumulated hysteresis evidence (see
  // docs/DSL.md "Reload semantics"). uptime_evals also carries over: it
  // counts evaluations of the *name* across program versions (the full
  // replace/restore/cold-start survival matrix is documented on
  // MonitorStats and pinned by tests/persist_test.cc). If the incoming guardrail carries a
  // `health { probation = ... }` block, the replace is a staged deployment:
  // the outgoing program is retained and the supervisor rolls back to it if
  // the new version's health regresses during the probation window.
  Status Load(CompiledGuardrail guardrail);

  // Compiles `source` (full pipeline) and loads every guardrail in it. If
  // the spec carries a `chaos { ... }` block and a chaos engine is attached
  // (SetChaos), the block is applied to it; with no engine attached the
  // block is validated but inert, so the same spec drives both a chaos run
  // and its clean shadow run.
  Status LoadSource(const std::string& source);

  // Attaches the fault-injection engine (borrowed; null detaches).
  // Monitor-facing sites: engine.callout_drop (FUNCTION callouts silently
  // eaten), engine.callout_delay (callouts time-shifted by the plan's
  // latency), runtime.helper_fail (helper calls fail cleanly inside monitor
  // programs), actions.dispatch_fail (corrective actions fail and retry).
  void SetChaos(ChaosEngine* chaos);

  Status Unload(const std::string& name);
  Status SetEnabled(const std::string& name, bool enabled);
  // Sorted monitor names; the vector is cached and rebuilt on load/unload,
  // so calling this per-tick is free.
  const std::vector<std::string>& MonitorNames() const { return monitor_names_; }
  bool Contains(const std::string& name) const;

  // --- Kernel callouts ---

  // Fires all TIMER triggers due at or before `t`, in timestamp order, then
  // advances the engine clock to `t`. Time must be non-decreasing.
  void AdvanceTo(SimTime t);

  // Earliest pending TIMER deadline, if any (lets an event-driven host skip
  // idle time). Pops the stale entries (monitor unloaded or replaced) it
  // finds on top of the timer heap, so it is O(1) apart from those.
  std::optional<SimTime> NextTimerDeadline();

  // Kernel function `function` was called at time `t`; fires FUNCTION
  // triggers registered for it.
  void OnFunctionCall(std::string_view function, SimTime t);

  // --- Introspection ---

  SimTime now() const { return now_; }
  Result<MonitorStats> StatsFor(const std::string& name) const;
  // Zero-copy variant: pointer into the live monitor (invalidated by
  // unload/replace), or nullptr if no such monitor. Preferred in bench loops.
  const MonitorStats* FindStats(const std::string& name) const;
  // The live compiled program of a monitor (invalidated by unload/replace),
  // or nullptr. Lets tests assert a rollback restored the old bytecode
  // bit-identically.
  const CompiledGuardrail* FindGuardrail(const std::string& name) const;
  EngineStats stats() const { return stats_; }
  GuardrailSupervisor& supervisor() { return supervisor_; }
  const GuardrailSupervisor& supervisor() const { return supervisor_; }

  FeatureStore& store() { return *store_; }
  PolicyRegistry& registry() { return *registry_; }
  Reporter& reporter() { return reporter_; }
  RetrainQueue& retrain_queue() { return retrain_queue_; }
  ActionDispatcher& dispatcher() { return dispatcher_; }
  Vm& vm() { return vm_; }

  // Overload governor (inert unless EngineOptions::governor.enabled).
  OverloadGovernor& governor() { return governor_; }
  const OverloadGovernor& governor() const { return governor_; }

  // Bounded-memory key lifecycle (inert without a spec `retention {}` block).
  RetentionManager& retention() { return retention_; }
  const RetentionManager& retention() const { return retention_; }

  // --- Crash consistency (osguard::persist) ---

  // Attaches the persist manager (borrowed; null detaches). From here on the
  // engine records every store mutation with it and journals its state
  // transitions at callout boundaries: every AdvanceTo / OnFunctionCall
  // that changed state commits one frame, and a compacted snapshot is
  // rotated in when the manager says one is due.
  void SetPersist(PersistManager* persist);

  // Warm restart: recovers engine state from `persist`'s directory. Call on
  // a freshly constructed engine *after* loading the same spec the crashed
  // run had loaded (LoadSource) — recovery matches monitors by name and
  // re-interns store keys, so the load must come first for KeyId stability.
  // Applies the recovery ladder (newest valid snapshot -> previous ->
  // cold start), replays the journal suffix, and leaves the manager open
  // for subsequent commits. A cold start (nothing to recover) is success.
  Result<RecoveryInfo> Restore(PersistManager& persist);

  // Full engine state (clock, stats, per-monitor records, timer queue,
  // reporter/retrain/supervisor counters) as an opaque versioned blob —
  // the image carried by every journal frame and snapshot. Public so the
  // differential tests can compare two engines bit-for-bit.
  std::string EncodeImage() const;
  // The full retained report ring (snapshot payload; frames carry deltas).
  std::string EncodeReportRing() const;

 private:
  struct Monitor {
    CompiledGuardrail guardrail;
    MonitorStats stats;
    bool enabled = true;
    uint64_t generation = 0;  // invalidates queued timer entries on unload
    // Supervisor record for supervised monitors (owned by the supervisor,
    // stable for this monitor's lifetime); null = unsupervised, and the
    // evaluation path pays exactly one null check (off == absent).
    GuardHealth* guard = nullptr;
    // Pre-deploy program retained while a probation deploy is under watch.
    std::unique_ptr<CompiledGuardrail> rollback_snapshot;
    bool rollback_queued = false;

    // monitor.<name>.uptime_evals export slot and the last value published
    // to it (publish happens at callout boundaries, only on change).
    KeyId uptime_key = kInvalidKeyId;
    uint64_t uptime_published = 0;

    // --- Overload governor state ---
    // Admission attempts (the deterministic sampling stride clock) and the
    // fail-static episode whose corrective default this monitor has pinned
    // (0 = none; compared against OverloadGovernor::fail_static_epoch()).
    uint64_t gov_attempts = 0;
    uint64_t gov_static_epoch = 0;

    // A monitor's image record after its name (src/persist/wire.h). The
    // governor's stride position and pinned fail-static episode must survive
    // a warm restart, or the resumed run would re-apply the static default
    // or shift the stride.
    template <class Io, class Self>
    static void PersistFields(Io& io, Self& m) {
      io.Bool(m.enabled);
      MonitorStats::PersistFields(io, m.stats);
      io.Optional(m.guard, [&](auto& guard) { GuardHealth::PersistFields(io, guard); });
      io.U64(m.gov_attempts);
      io.U64(m.gov_static_epoch);
    }
  };

  // Timer entries reference monitors by (name, generation) rather than by
  // pointer: a hot replace or unload frees the Monitor while its entries are
  // still queued, so entries must be validated against the live map before
  // any dereference.
  struct TimerEntry {
    SimTime due;
    uint64_t tiebreak;  // preserves FIFO order among equal deadlines
    std::string monitor_name;
    size_t trigger_index;
    uint64_t generation;
    bool operator>(const TimerEntry& other) const {
      return due != other.due ? due > other.due : tiebreak > other.tiebreak;
    }

    // An entry's image record (src/persist/wire.h); the generation is not
    // persisted but remapped to the reloaded monitor's on restore.
    template <class Io, class Self>
    static void PersistFields(Io& io, Self& e) {
      io.I64(e.due);
      io.U64(e.tiebreak);
      io.Str(e.monitor_name);
      io.U64(e.trigger_index);
    }
  };

  // The live monitor for a queued entry, or null if the entry is stale.
  Monitor* ResolveEntry(const TimerEntry& entry) const;

  // A fresh monitor with the next generation, carrying over the protocol
  // clocks and uptime export of `previous` (a replace's or rollback's).
  std::unique_ptr<Monitor> MakeMonitor(CompiledGuardrail guardrail, const Monitor* previous);
  // Whether a loaded monitor caches slot `id`: an ONCHANGE trigger watches
  // it, or a keyed call in one of its programs (or in the pre-deploy
  // version a probation rollback would restore) has it baked in.
  bool SlotBound(KeyId id) const;
  void ArmTimers(Monitor& monitor);
  void RebuildFunctionIndex();
  // RunProtocol inside the re-entrancy guard on ONCHANGE evaluations.
  void Evaluate(Monitor& monitor, SimTime t);
  // The per-monitor protocol at the top of this file; each skip returns early.
  void RunProtocol(Monitor& monitor, SimTime t);
  void Report(const Monitor& monitor, SimTime t, ReportKind kind, std::string message);
  // A corrective default (fail-static or quarantine): the report naming
  // why, then the action program.
  void ApplyDefault(Monitor& monitor, SimTime t, const char* why);
  // Runs a rule or action program, adding its host-clock cost to `wall_ns`.
  // A supervised monitor's action programs run under the rule's step cap,
  // so an over-budget action program is killed mid-flight too.
  Result<Value> Execute(Monitor& monitor, const Program& program, SimTime t, int64_t& wall_ns);
  void RunActions(Monitor& monitor, const Program& program, SimTime t);
  void MarkDirty();  // the next boundary must commit a journal frame
  // The store's observer. Records the mutation with the persist manager,
  // then for a write stamps retention's last-write clock and fires the
  // ONCHANGE triggers watching the key at the engine's current time: the
  // store hands the interned id through, so dispatch is an array index.
  // Writes performed *by monitor programs* (actions SAVE-ing state) are
  // deferred until the running evaluation finishes and are processed with a
  // bounded cascade budget, so two ONCHANGE guardrails whose actions touch
  // each other's keys cannot loop the engine (§6's feedback-loop hazard,
  // contained at the trigger layer). Ignored while Restore replays.
  void OnStoreMutation(const StoreMutation& m, const std::string& key);
  void DrainPendingChanges();
  // Rollbacks are queued during evaluation and applied at callout
  // boundaries, where no Monitor pointers or trigger references are live.
  // Queues the rollback the monitor's supervisor record asks for, if any.
  void QueuePendingRollback(Monitor& monitor);
  void ApplyPendingRollbacks();

  // The callout-boundary tail, in order: pending rollbacks, uptime publish,
  // retention, the governor's ladder step, and the journal commit. AdvanceTo
  // and OnFunctionCall both end with it; it is the only place the sequence
  // is written out.
  void EndBoundary();

  // Governor callout boundary: feed the cumulative evaluation count into
  // the overload ladder and publish engine.governor.* (value-diffed). No-op
  // mid-evaluation and when the governor is disabled.
  void FinishCalloutGovernor();

  // Retention callout boundary: the ONLY place keys are reclaimed (chaos
  // sampling, incremental TTL scan, quota eviction, telemetry publish).
  // Runs before FinishCalloutGovernor so the governor's store-bytes probe
  // sees the post-reclamation footprint, and before CommitPersist so the
  // reclaim Erase frames journal with this boundary. No-op mid-evaluation
  // and without a retention block.
  void RunRetention();

  // --- Crash consistency (osguard::persist) ---
  // Publishes monitor.<name>.uptime_evals for monitors whose count moved.
  // No-op mid-evaluation (callout boundaries only) and when nothing changed.
  void PublishUptimeStats();
  // End-of-callout hook: commits a journal frame if anything changed since
  // the last commit, then rotates a snapshot in when one is due. Errors are
  // logged and swallowed — persistence failures degrade durability (the
  // recovery point moves back), never the running engine.
  void CommitPersist();
  // The engine's own image fields, after the version (src/persist/wire.h):
  // the clock, the timer tiebreak counter and EngineStats.
  template <class Io, class Self>
  static void PersistFields(Io& io, Self& e) {
    io.I64(e.now_);
    io.U64(e.next_tiebreak_);
    EngineStats::PersistFields(io, e.stats_);
  }
  // Appends EncodeImage()'s bytes to `out`: the version, then each
  // section's PersistFields in order.
  void EncodeImageTo(std::string* out) const;
  // Appends the retained report records with sequence >= `from`,
  // wire-encoded: a frame's delta, or with from = 0 the whole ring.
  void EncodeReportsSince(uint64_t from, std::string* out) const;
  // Decodes a report blob and re-inserts each record via RestoreRecord.
  Status ApplyReportBlob(std::string_view blob);
  // Decodes an image into the live engine, section by section. Unknown
  // monitor names are skipped with a log line (their bytes consumed), as is
  // guard state for a monitor the reloaded spec does not supervise; the
  // timer queue is replaced wholesale, entries remapped to the current
  // monitor generations, and only after the whole image parsed.
  Status ApplyImage(std::string_view image);

  FeatureStore* store_;
  PolicyRegistry* registry_;
  EngineOptions options_;
  Reporter reporter_;
  RetrainQueue retrain_queue_;
  ActionDispatcher dispatcher_;
  MonitorHelperEnv env_;
  Vm vm_;

  SimTime now_ = 0;
  uint64_t next_tiebreak_ = 0;
  uint64_t next_generation_ = 1;
  std::map<std::string, std::unique_ptr<Monitor>> monitors_;
  std::vector<std::string> monitor_names_;  // cache backing MonitorNames()
  // Min-heap on (due, tiebreak); entries() exposes the heap array so
  // EncodeImage can read the live entries without copying the heap.
  struct TimerHeap
      : std::priority_queue<TimerEntry, std::vector<TimerEntry>, std::greater<TimerEntry>> {
    const std::vector<TimerEntry>& entries() const { return c; }
  };
  TimerHeap timers_;
  // Heterogeneous lookup: OnFunctionCall probes with its string_view argument
  // directly — no temporary std::string on the callout hot path.
  std::unordered_map<std::string, std::vector<Monitor*>, TransparentStringHash,
                     std::equal_to<>>
      function_hooks_;
  // Indexed by KeyId (watch keys are interned into the store at load), so an
  // ONCHANGE dispatch is a bounds check + vector index.
  std::vector<std::vector<Monitor*>> watch_hooks_;
  size_t watch_hook_count_ = 0;  // total hooked monitors; 0 = fast bail-out
  bool evaluating_ = false;
  bool draining_ = false;
  // Restore is replaying journaled mutations: the recovered state already
  // reflects every evaluation they caused, so the observer ignores them.
  bool restoring_ = false;
  std::vector<KeyId> pending_changes_;
  std::vector<KeyId> drain_batch_;  // swap buffer; keeps capacity across drains
  ChaosEngine* chaos_ = nullptr;
  ChaosSiteId callout_drop_site_ = kInvalidChaosSite;
  ChaosSiteId callout_delay_site_ = kInvalidChaosSite;
  GuardrailSupervisor supervisor_;
  OverloadGovernor governor_;
  RetentionManager retention_;
  // (name, generation) of monitors whose probation deploy must roll back.
  std::vector<std::pair<std::string, uint64_t>> pending_rollbacks_;
  EngineStats stats_;

  // --- Crash consistency (osguard::persist) ---
  PersistManager* persist_ = nullptr;  // borrowed; null = persistence off
  // Reporter sequence at the last committed frame; the next frame's delta
  // starts here.
  uint64_t last_report_mark_ = 0;
  // Commit buffers, kept with their capacity from one commit to the next.
  std::string persist_image_;
  std::string persist_delta_;
  bool uptime_dirty_ = false;  // some monitor evaluated since last publish
};

}  // namespace osguard

#endif  // SRC_RUNTIME_ENGINE_H_
