// Semantic analysis for guardrail specs.
//
// Validates a parsed SpecFile and produces an AnalyzedSpec ready for
// compilation:
//  * TIMER arguments must constant-fold to sane values (interval > 0, ...).
//  * Rule expressions must be side-effect free (no actions, no SAVE/INCR)
//    and evaluate to a truth value.
//  * Action statements must be calls to action builtins or store mutations
//    (SAVE — as in Listing 2 — INCR, OBSERVE, and REPORT).
//  * Builtin arity and argument modes are enforced: key positions take bare
//    identifiers or string literals, DEPRIORITIZE takes brace lists.
//  * meta attributes are restricted to a known vocabulary (severity,
//    cooldown, hysteresis, enabled, description) to catch typos early.
//  * chaos blocks are validated the same way: known site attributes only,
//    mode in {off, bernoulli, schedule, burst}, p in [0, 1], sane windows.

#ifndef SRC_DSL_SEMA_H_
#define SRC_DSL_SEMA_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/dsl/ast.h"
#include "src/dsl/builtins.h"
#include "src/support/status.h"
#include "src/support/time.h"

namespace osguard {

enum class Severity {
  kInfo = 0,
  kWarning = 1,
  kCritical = 2,
};

std::string_view SeverityName(Severity severity);

// Validated supervisor attributes from the `health: { ... }` block. The
// presence of the block (supervised = true) places the guardrail under the
// runtime supervisor: budget enforcement, health scoring, circuit-breaker
// quarantine, and (on replace-by-name) probation with auto-rollback.
struct GuardrailHealth {
  bool supervised = false;
  // Per-evaluation VM step budget applied to the rule and action programs;
  // 0 = no step cap beyond the structural verifier bound. There is no
  // wall-time budget: only simulated time may decide an outcome.
  int64_t budget_steps = 0;
  // Trip-flap detector: more than flap_threshold violated<->satisfied
  // transitions inside flap_window counts as a failure event.
  Duration flap_window = Seconds(60);
  int flap_threshold = 8;
  // Circuit breaker: consecutive failure events that open it, probe cadence
  // while open (every Nth suppressed trigger runs half-open), and the number
  // of consecutive clean probes that close it again.
  int quarantine = 3;
  int probe_every = 8;
  int reinstate = 2;
  // Staged deployment: when > 0, a replace-by-name load runs in probation for
  // this window and is rolled back if its health regresses; 0 = no probation.
  Duration probation = 0;
  // EWMA smoothing factor for the failure/cost health scores, in (0, 1].
  double ewma_alpha = 0.2;
};

// Per-guardrail overload class from the meta block: under load shedding
// (src/runtime/governor) `critical` monitors are never skipped, `standard`
// monitors are shed only in the critical-only and fail-static ladder modes,
// and `besteffort` monitors are the first to degrade (deterministically
// sampled, then shed). Purely a scheduling class — with the governor off
// (the default) it changes nothing.
enum class Criticality {
  kStandard = 0,
  kCritical,
  kBestEffort,
};

std::string_view CriticalityName(Criticality criticality);

// Validated per-guardrail attributes from the meta block (with defaults).
struct GuardrailMeta {
  Severity severity = Severity::kWarning;
  // Minimum time between consecutive action firings; 0 = fire every
  // violation. This is the damping knob for the feedback-loop problem the
  // paper raises in §6.
  Duration cooldown = 0;
  // Number of consecutive violated evaluations required before actions run
  // (1 = act immediately).
  int hysteresis = 1;
  bool enabled = true;
  std::string description;
  Criticality criticality = Criticality::kStandard;
  // Supervisor configuration (default: unsupervised). Carried inside meta so
  // it flows through compilation to the runtime untouched.
  GuardrailHealth health;
};

struct AnalyzedGuardrail {
  GuardrailDecl decl;       // triggers constant-folded
  GuardrailMeta meta;
};

// How a chaos site decides whether to inject (mirrors osguard::FaultMode;
// the chaos library converts — sema cannot depend on src/chaos).
enum class ChaosMode {
  kOff = 0,
  kBernoulli,
  kSchedule,
  kBurst,
};

std::string_view ChaosModeName(ChaosMode mode);

// A validated `site name { ... }` entry from a chaos block.
struct AnalyzedChaosSite {
  std::string name;
  ChaosMode mode = ChaosMode::kBernoulli;
  double p = 0.0;              // bernoulli / burst in-window probability
  std::vector<uint64_t> nth;   // schedule indices (sorted, deduped)
  Duration period = 0;         // burst cycle
  Duration burst = 0;          // burst window
  Duration latency = 0;        // injected magnitude
  double value = 0.0;          // generic magnitude payload
};

// A validated `chaos { ... }` block.
struct AnalyzedChaos {
  bool has_seed = false;
  uint64_t seed = 0;
  std::vector<AnalyzedChaosSite> sites;
};

// A validated `persist { ... }` block (osguard::persist configuration).
// Defaults mirror PersistOptions; absence of the block means persistence
// stays off entirely.
struct AnalyzedPersist {
  Duration snapshot_interval = Seconds(10);  // <= 0 disables periodic snapshots
  uint64_t journal_budget = 1 << 20;         // bytes; 0 = unbounded journal
};

// A validated `namespace "prefix" { ... }` entry from a retention block.
struct AnalyzedRetentionNamespace {
  std::string prefix;
  uint64_t max_keys = 0;   // 0 = no key budget (TTL only)
  Duration idle_ttl = 0;   // <= 0 = no idle reclamation (quota only)
  int line = 0;
};

// A validated `retention { ... }` block (bounded-memory key lifecycle,
// docs/STORE.md). Absence of the block means reclamation stays off.
struct AnalyzedRetention {
  uint64_t scan_chunk = 64;  // slots examined per callout boundary
  std::vector<AnalyzedRetentionNamespace> namespaces;
};

struct AnalyzedSpec {
  std::vector<AnalyzedGuardrail> guardrails;
  std::optional<AnalyzedChaos> chaos;
  std::optional<AnalyzedPersist> persist;
  std::optional<AnalyzedRetention> retention;
};

// Consumes the spec (triggers are folded in place).
Result<AnalyzedSpec> Analyze(SpecFile spec);

// Constant-folds an expression composed of literals, unary minus/not, and
// arithmetic; anything else (idents, calls) is an error. Exposed for tests
// and for the compiler's own folding.
Result<Value> EvalConst(const Expr& expr);

// Infers the coarse type of an expression, assuming it has already passed
// CheckExpr. LOAD and friends are kAny.
DslType InferType(const Expr& expr);

}  // namespace osguard

#endif  // SRC_DSL_SEMA_H_
