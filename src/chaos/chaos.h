// Deterministic fault injection (osguard::chaos).
//
// The paper's core claim is that guardrails keep a system safe when the
// learned policy misbehaves — which means the repo has to be able to *make*
// policies and plumbing misbehave, on demand and reproducibly. This
// subsystem provides that: named injection sites scattered through the
// simulator and monitor runtime (SSD latency spikes, I/O errors, model
// misprediction storms, dropped/delayed FUNCTION callouts, helper and
// action-dispatch failures), each driven by a seeded fault plan.
//
// Determinism contract (what tests/chaos_test.cc enforces):
//   * Every site draws from its own RNG stream, seeded from
//     splitmix64(master_seed ^ fnv1a(site_name)) — so arming, querying, or
//     re-ordering *other* sites never perturbs a site's decisions, and
//     registration order is irrelevant.
//   * Decisions depend only on (site seed, per-site query index, query
//     time). Replaying a run with the same seed is bit-identical.
//   * An unarmed (or kOff) site consumes no randomness and returns
//     "no injection", so a chaos-attached run with rate 0 produces exactly
//     the trace of a run with no chaos engine at all (the differential
//     baseline property).
//
// Threading: the simulator is single-threaded; ChaosEngine is not locked.

#ifndef SRC_CHAOS_CHAOS_H_
#define SRC_CHAOS_CHAOS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/dsl/sema.h"
#include "src/support/hash.h"
#include "src/support/rng.h"
#include "src/support/status.h"
#include "src/support/time.h"

namespace osguard {

// Dense handle for a registered injection site (index into the site table).
using ChaosSiteId = uint32_t;
inline constexpr ChaosSiteId kInvalidChaosSite = 0xffffffffu;

// Canonical site names. Components register these when chaos is attached;
// specs arm them by name in a `chaos { site <name> { ... } }` block.
inline constexpr char kChaosSiteSsdLatency[] = "ssd.latency_spike";
inline constexpr char kChaosSiteSsdError[] = "ssd.io_error";
inline constexpr char kChaosSiteMispredict[] = "model.mispredict";
inline constexpr char kChaosSiteWeightCorrupt[] = "ml.weight_corrupt";
inline constexpr char kChaosSiteCalloutDrop[] = "engine.callout_drop";
inline constexpr char kChaosSiteCalloutDelay[] = "engine.callout_delay";
inline constexpr char kChaosSiteHelperFail[] = "runtime.helper_fail";
inline constexpr char kChaosSiteDispatchFail[] = "actions.dispatch_fail";
inline constexpr char kChaosSiteProbeFail[] = "supervisor.probe_fail";
inline constexpr char kChaosSiteBudgetExhaust[] = "vm.budget_exhaust";
// Persistence-layer faults (osguard::persist). These damage the *files*, not
// the in-memory state — the process keeps running unaware, and the damage is
// discovered (and must be survived) at recovery time:
//   persist.torn_write    — journal append stops mid-frame (decision value in
//                           (0,1] = fraction of the frame that lands; 0.5
//                           when unset)
//   persist.crc_corrupt   — one bit of the frame payload flips after the CRC
//                           was computed
//   persist.truncate_tail — the journal loses its final bytes after a
//                           successful append (value = fraction of the frame)
//   persist.snapshot_fail — a snapshot write aborts before the atomic rename
inline constexpr char kChaosSitePersistTornWrite[] = "persist.torn_write";
inline constexpr char kChaosSitePersistCrcCorrupt[] = "persist.crc_corrupt";
inline constexpr char kChaosSitePersistTruncateTail[] = "persist.truncate_tail";
inline constexpr char kChaosSitePersistSnapshotFail[] = "persist.snapshot_fail";
// Agent tool-call callout faults (osguard::agent, docs/AGENT.md). Both model
// instrumentation pathologies on the Kernel::OnToolCall path:
//   agent.event_drop  — the tool-call event is lost before admission: no
//                       feature-store publication, no callout, as if the
//                       instrumentation hook never fired
//   agent.dup_session — the event is delivered twice, the duplicate under a
//                       ghost session id (original id XOR a fixed constant),
//                       modeling a session-id collision in the event bus
inline constexpr char kChaosSiteAgentEventDrop[] = "agent.event_drop";
inline constexpr char kChaosSiteAgentDupSession[] = "agent.dup_session";
// Store retention sites (docs/STORE.md), sampled once per callout boundary —
// reclamation is itself a boundary-only mechanism, so injected storms replay
// identically:
//   store.evict_storm  — this boundary reclaims every unpinned idle key in
//                        governed namespaces regardless of TTL (cardinality
//                        flood flushing the store)
//   store.quota_breach — this boundary treats every governed namespace as
//                        over its key budget, forcing LRU eviction pressure
inline constexpr char kChaosSiteStoreEvictStorm[] = "store.evict_storm";
inline constexpr char kChaosSiteStoreQuotaBreach[] = "store.quota_breach";

enum class FaultMode {
  kOff = 0,    // never inject (the default for every registered site)
  kBernoulli,  // inject each query independently with probability p
  kSchedule,   // inject at fixed 0-based query indices (bit-exact replay)
  kBurst,      // periodic storm windows: inject with probability p while
               // (now % period) < burst
};

std::string_view FaultModeName(FaultMode mode);

// One site's plan. Magnitudes (latency / value) ride along on every
// injecting decision; the consuming site interprets them (extra service
// latency, weight-noise stddev, callout delay, ...).
struct FaultPlanConfig {
  FaultMode mode = FaultMode::kOff;
  double p = 0.0;              // kBernoulli / kBurst in-window probability
  std::vector<uint64_t> nth;   // kSchedule: sorted 0-based query indices
  Duration period = 0;         // kBurst cycle length
  Duration burst = 0;          // kBurst storm length from each cycle start
  Duration latency = 0;        // magnitude: extra latency / delay
  double value = 0.0;          // magnitude: generic payload
};

// Validates mode-specific fields (p in [0,1], burst windows sane, schedule
// sorted). Arm() calls this; exposed for the DSL loader's diagnostics.
Status ValidateFaultPlan(const FaultPlanConfig& config);

struct FaultDecision {
  bool inject = false;
  Duration latency = 0;  // plan magnitude, 0 when not injecting
  double value = 0.0;

  explicit operator bool() const { return inject; }
};

struct ChaosSiteStats {
  uint64_t queries = 0;   // since the site was last armed (or registered)
  uint64_t injected = 0;
};

class ChaosEngine {
 public:
  explicit ChaosEngine(uint64_t seed = 0) : seed_(seed) {}
  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;

  uint64_t seed() const { return seed_; }

  // Re-seeds every site's stream and resets counters. Existing site ids
  // stay valid; armed plans stay armed.
  void Reseed(uint64_t seed);

  // Returns the id for `name`, creating an unarmed (kOff) site if absent.
  // Idempotent; ids are stable for the engine's lifetime.
  ChaosSiteId RegisterSite(std::string_view name);

  // The id for `name`, or kInvalidChaosSite if never registered.
  ChaosSiteId FindSite(std::string_view name) const;

  // Installs a plan at `name` (registering the site if needed). Resets the
  // site's query counter and re-derives its RNG stream, so a plan's behavior
  // is a pure function of (engine seed, site name, queries after arming).
  Status Arm(std::string_view name, FaultPlanConfig config);

  // Returns the site to kOff (keeps the id and stats).
  void Disarm(std::string_view name);
  void DisarmAll();

  // The hot call: should site `id` inject at simulated time `now`?
  // Unarmed/kOff sites return false without consuming randomness.
  FaultDecision Query(ChaosSiteId id, SimTime now);
  bool ShouldInject(ChaosSiteId id, SimTime now) { return Query(id, now).inject; }

  // --- Introspection ---
  size_t site_count() const { return sites_.size(); }
  const std::string& SiteName(ChaosSiteId id) const { return sites_[id].name; }
  const FaultPlanConfig& PlanFor(ChaosSiteId id) const { return sites_[id].plan; }
  ChaosSiteStats StatsFor(ChaosSiteId id) const { return sites_[id].stats; }
  Result<ChaosSiteStats> StatsFor(std::string_view name) const;
  uint64_t total_injected() const;
  std::vector<std::string> SiteNames() const;

 private:
  struct Site {
    std::string name;
    FaultPlanConfig plan;
    Rng rng{0};
    uint64_t next_schedule = 0;  // cursor into plan.nth
    ChaosSiteStats stats;
  };

  void RederiveStream(Site& site);

  uint64_t seed_;
  std::vector<Site> sites_;
  std::unordered_map<std::string, ChaosSiteId, TransparentStringHash, std::equal_to<>>
      index_;
};

// Applies an analyzed `chaos { ... }` spec block: reseeds (when the block
// carries a seed) and arms every declared site. Unknown site names are fine
// — sites are registered on demand, so specs can arm sites whose components
// attach later.
Status ApplyChaosSpec(const AnalyzedChaos& spec, ChaosEngine& chaos);

}  // namespace osguard

#endif  // SRC_CHAOS_CHAOS_H_
