// Bounded-memory key lifecycle: namespace quotas, idle-TTL reclamation, and
// store memory-pressure telemetry (docs/STORE.md).
//
// The feature store interns keys into a dense slot table that PR 1 made the
// hot path fast precisely by never moving — but "never moving" degenerated
// into "never reclaimed", and the agent domain mints a key family per
// session, so the millions-of-users north star implied unbounded intern
// growth. This module is the policy half of the fix (the store ships the
// mechanism: generation-tagged slots, a free list, Pin/Reclaim):
//
//   * last-write stamps  — every store write is stamped with simulated time
//                          by the engine, the store's observer (O(1), no
//                          lock).
//   * namespaces         — the spec's `retention { namespace "prefix" {..} }`
//                          block declares per-prefix key budgets (max_keys)
//                          and idle TTLs; keys are classified on first write
//                          by longest-prefix match.
//   * idle reclamation   — an incremental cursor walks `scan_chunk` slots
//                          per callout boundary and reclaims governed keys
//                          whose idle age exceeded their namespace TTL. Each
//                          namespace also keeps its tracked slots in
//                          last-write order (an intrusive list, O(1) per
//                          write), so a boundary at which no namespace's
//                          oldest write has reached its TTL moves the cursor
//                          to where the walk would have left it and walks
//                          nothing.
//   * quota eviction     — a namespace over its key budget evicts its
//                          least-recently-written members first (stable
//                          tie-break: lower slot id), down to the budget.
//   * telemetry          — value-diffed `store.retention.*` counters and
//                          `engine.store.bytes.*` gauges, published at
//                          callout boundaries; writes go through the normal
//                          Save path so ONCHANGE guardrails can react to
//                          breaches (the quota-exceeded corrective hook).
//
// Determinism contract: reclamation runs ONLY at callout boundaries and is a
// pure function of simulated state — so runs with retention enabled replay
// bit-identically, and the chaos sites `store.evict_storm` /
// `store.quota_breach` replay exactly.
//
// Self-correction: bookkeeping (namespace counts, byte gauges, last-write
// lists) tolerates reclamations it did not perform (the agent kill path
// calls FeatureStore::ReclaimKey directly). A tracked slot that turns out to
// be dead or pinned when touched is untracked on the spot, so counts
// converge instead of drifting.
//
// Write stamps must be non-decreasing (the engine's clock is monotone):
// the last-write lists rely on it to keep their oldest entry first.
//
// Off == absent: without a `retention { }` block nothing is stamped, no keys
// are interned, and every boundary pays a single branch.

#ifndef SRC_RUNTIME_RETENTION_H_
#define SRC_RUNTIME_RETENTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/chaos/chaos.h"
#include "src/dsl/sema.h"
#include "src/store/feature_store.h"
#include "src/support/time.h"

namespace osguard {

struct RetentionNamespaceOptions {
  std::string prefix;
  uint64_t max_keys = 0;  // 0 = no key budget (TTL only)
  Duration idle_ttl = 0;  // <= 0 = no idle reclamation (quota only)
};

struct RetentionOptions {
  bool enabled = false;
  uint64_t scan_chunk = 64;  // slots examined per callout boundary
  std::vector<RetentionNamespaceOptions> namespaces;
};

struct RetentionStats {
  uint64_t reclaimed_idle = 0;    // idle-TTL, storm and session-teardown reclamations
  uint64_t reclaimed_quota = 0;   // LRU quota evictions
  uint64_t quota_breaches = 0;    // boundaries where a namespace was over budget
  uint64_t chaos_storms = 0;      // store.evict_storm injections taken
  uint64_t chaos_breaches = 0;    // store.quota_breach injections taken
  uint64_t stale_tracks_fixed = 0;  // externally reclaimed slots untracked lazily
};

class RetentionManager {
 public:
  // Interns and pins the telemetry keys when enabled. `store` may be null
  // (bare unit tests); publishing is then a no-op. Safe to call again on
  // spec reload.
  void Configure(const RetentionOptions& options, FeatureStore* store);
  // Chaos is attached separately because the kernel wires it before specs
  // load; a null engine detaches.
  void AttachChaos(ChaosEngine* chaos);

  bool enabled() const { return options_.enabled; }
  const RetentionOptions& options() const { return options_; }
  const RetentionStats& stats() const { return stats_; }

  // A store write (Save, Increment or Observe; the engine calls it from the
  // store's observer), O(1): stamps last-write time, classifies new slot
  // tenants into namespaces, and maintains per-namespace key/byte gauges.
  void OnWrite(const StoreMutation& write, const std::string& key, SimTime now);

  // Callout boundary: chaos sampling, incremental TTL scan, quota
  // enforcement, telemetry publish. The only place reclamation happens.
  void RunAtBoundary(SimTime now);

  // Places an already-live, unpinned slot under governance (stamped with
  // `now`). OnWrite only tracks slots as they are written, so a key whose
  // owner just Unpinned it (monitor unload) would otherwise be invisible to
  // the TTL scan forever. No-op for pinned, dead, or ungoverned slots.
  void AdoptKey(KeyId id, SimTime now);

  // Eagerly reclaims one governed slot with the boundary walk's bookkeeping
  // (counted in reclaimed_idle). Returns true when the slot was reclaimed;
  // untracked slots are left alone. Agent session teardown
  // (Kernel::OnSessionEnd) calls it for the session's keys in ascending
  // slot order. Unlike boundary reclamation this may run mid-callout, but
  // only at fixed points of the event sequence, so determinism is preserved.
  bool ReclaimTracked(KeyId id);

  // Next slot the incremental TTL scan examines.
  uint64_t cursor() const { return cursor_; }

  // The retention state the engine image carries, in image order
  // (src/persist/wire.h): a panic landing mid-scan warm-restarts with the
  // same cursor, counters and publish trackers. Membership, stamps and byte
  // gauges are not imaged, and ResyncAfterRestore rebuilds them only
  // approximately: membership and byte gauges come back from the restored
  // store, but every governed key's last-write stamp becomes the reboot time
  // and the tracking table is sized to the whole slot table. A warm restart
  // with retention on therefore replays deterministically but does not
  // continue the uninterrupted run's reclamation trajectory (docs/STORE.md,
  // docs/PERSIST.md).
  template <class Io, class Self>
  static void PersistFields(Io& io, Self& m) {
    io.U64(m.cursor_);
    io.U64(m.stats_.reclaimed_idle);
    io.U64(m.stats_.reclaimed_quota);
    io.U64(m.stats_.quota_breaches);
    io.U64(m.stats_.chaos_storms);
    io.U64(m.stats_.chaos_breaches);
    io.U64(m.stats_.stale_tracks_fixed);
    io.Bool(m.keys_published_);
    io.U64(m.pub_reclaimed_);
    io.U64(m.pub_evictions_);
    io.U64(m.pub_breaches_);
    io.U64(m.pub_bytes_total_);
    io.U64(m.pub_live_keys_);
    io.Seq(m.pub_ns_, "retention namespace", [&](auto& ns) {
      io.U64(ns.keys);
      io.U64(ns.bytes);
    });
  }
  // One publish tracker per configured namespace, whatever count a restored
  // image carried: extra entries are dropped, missing ones start at zero.
  void FitTrackersToNamespaces() { pub_ns_.resize(options_.namespaces.size()); }
  // Rebuilds membership, counts, and byte gauges from the restored store and
  // stamps every tracked slot with `now` (restore time). Deterministic: two
  // restores of the same store resync identically, but the stamps differ
  // from the crashed run's (see PersistFields).
  void ResyncAfterRestore(SimTime now);

 private:
  // Per-slot tracking. `ns` is an index into options_.namespaces, -1 when
  // the slot's key matches no governed prefix (or the slot is pinned).
  struct Tracked {
    int32_t ns = -1;
    bool valid = false;  // believed live with this tenant
    uint32_t generation = 0;
    // Neighbours in the namespace's last-write list; every valid slot is
    // linked, and nothing else is.
    KeyId older = kInvalidKeyId;
    KeyId newer = kInvalidKeyId;
    uint64_t bytes = 0;
    SimTime last_write = 0;
  };

  // A namespace's valid slots, oldest last write first: the TTL sweep's
  // skip test reads the oldest, the quota census walks them all.
  struct WriteOrder {
    KeyId oldest = kInvalidKeyId;
    KeyId newest = kInvalidKeyId;
  };

  int32_t Classify(std::string_view key) const;
  // Last-write list maintenance for a valid slot (t.ns >= 0).
  void LinkNewest(KeyId id, Tracked& t);
  void Unlink(Tracked& t);
  // Whether some valid slot's idle age has reached its namespace TTL: the
  // only case in which the boundary walk can reclaim anything.
  bool AnyIdle(SimTime now) const;
  void Untrack(KeyId id, Tracked& t);
  // Reclaims via the store; fixes tracking on pinned/dead surprises.
  // Returns true when the slot was actually reclaimed.
  bool TryReclaim(KeyId id, Tracked& t, bool quota);
  void ScanChunk(SimTime now, bool storm);
  void EnforceQuota(SimTime now, bool breach_all);
  void Publish();

  RetentionOptions options_;
  FeatureStore* store_ = nullptr;
  ChaosEngine* chaos_ = nullptr;
  ChaosSiteId storm_site_ = kInvalidChaosSite;
  ChaosSiteId breach_site_ = kInvalidChaosSite;

  std::vector<Tracked> tracked_;
  std::vector<WriteOrder> write_order_;  // per namespace
  std::vector<uint64_t> ns_keys_;        // tracked live keys per namespace
  std::vector<uint64_t> ns_bytes_;       // tracked approx bytes per namespace
  uint64_t cursor_ = 0;
  RetentionStats stats_;

  // Telemetry keys (pinned at Configure).
  KeyId k_reclaimed_ = kInvalidKeyId;
  KeyId k_evictions_ = kInvalidKeyId;
  KeyId k_breaches_ = kInvalidKeyId;
  KeyId k_bytes_total_ = kInvalidKeyId;
  KeyId k_live_keys_ = kInvalidKeyId;
  std::vector<KeyId> k_ns_keys_;
  std::vector<KeyId> k_ns_bytes_;
  bool keys_published_ = false;
  uint64_t pub_reclaimed_ = 0;
  uint64_t pub_evictions_ = 0;
  uint64_t pub_breaches_ = 0;
  uint64_t pub_bytes_total_ = 0;
  uint64_t pub_live_keys_ = 0;
  // Last published engine.store.{keys,bytes}.<prefix> values, per namespace.
  struct NamespaceGauges {
    uint64_t keys = 0;
    uint64_t bytes = 0;
  };
  std::vector<NamespaceGauges> pub_ns_;
};

// Built-in namespace defaults applied by the engine when a retention block
// is present but does not itself govern these families: per-session agent
// keys and per-monitor uptime counters leak when their owner dies, so they
// get a conservative TTL even if the spec author forgot them.
RetentionOptions WithBuiltinNamespaces(RetentionOptions options);

}  // namespace osguard

#endif  // SRC_RUNTIME_RETENTION_H_
