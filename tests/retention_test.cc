// Bounded-memory feature store: key lifecycle, namespace quotas, and
// memory-pressure governance (docs/STORE.md), under `ctest -L retention`:
//   * the spec-level `retention { }` block — parse + semantic validation;
//   * RetentionManager unit behavior on a bare store — idle-TTL scan with
//     the incremental cursor, LRU quota eviction with the stable tie-break,
//     builtin namespace defaults, telemetry publication, chaos storm/breach
//     injection, self-correcting bookkeeping under external reclaims;
//   * the TTL sweep against a reference walk that shares no code with
//     RetentionManager, over 1,000 seeds: the manager skips boundaries at
//     which nothing can expire, and must still reclaim the same slots in
//     the same order and leave the cursor and counters where the walk does;
//   * engine/kernel integration — TTL reclamation at callout boundaries,
//     quota-breach ONCHANGE corrective hooks, unloaded-monitor counter
//     adoption, agent kill-path and session-end eager reclamation, warm
//     restart carrying the retention image;
//   * off == absent — without a retention block nothing is stamped, no
//     store.retention.* keys are interned, and agent/session state keeps
//     the seed lifecycle exactly.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/actions/agent_control.h"
#include "src/agent/tool_call.h"
#include "src/chaos/chaos.h"
#include "src/dsl/parser.h"
#include "src/dsl/sema.h"
#include "src/persist/persist.h"
#include "src/runtime/engine.h"
#include "src/runtime/retention.h"
#include "src/sim/agent_callout.h"
#include "src/sim/kernel.h"
#include "src/store/feature_store.h"
#include "src/support/logging.h"
#include "src/support/rng.h"
#include "src/support/time.h"
#include "tests/test_dir.h"

namespace osguard {
namespace {

namespace fs = std::filesystem;

class RetentionTest : public ::testing::Test {
 protected:
  RetentionTest() { Logger::Global().set_level(LogLevel::kOff); }
};

Result<AnalyzedSpec> AnalyzeSource(const std::string& source) {
  auto spec = ParseSpecSource(source);
  if (!spec.ok()) {
    return spec.status();
  }
  return Analyze(std::move(spec).value());
}

double LoadNum(Kernel& kernel, const std::string& key) {
  return kernel.store().LoadOr(key, Value(0.0)).NumericOr(-1.0);
}

// --- DSL surface ---

TEST_F(RetentionTest, SpecBlockParsesAndAnalyzes) {
  auto analyzed = AnalyzeSource(R"(
    retention {
      scan_chunk = 128
      namespace "agent.s" { max_keys = 1000, idle_ttl = 30s }
      namespace "tmp." { idle_ttl = 500ms }
      namespace "cache." { max_keys = 64 }
    }
  )");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  ASSERT_TRUE(analyzed.value().retention.has_value());
  const AnalyzedRetention& r = *analyzed.value().retention;
  EXPECT_EQ(r.scan_chunk, 128u);
  ASSERT_EQ(r.namespaces.size(), 3u);
  EXPECT_EQ(r.namespaces[0].prefix, "agent.s");
  EXPECT_EQ(r.namespaces[0].max_keys, 1000u);
  EXPECT_EQ(r.namespaces[0].idle_ttl, Seconds(30));
  EXPECT_EQ(r.namespaces[1].max_keys, 0u);
  EXPECT_EQ(r.namespaces[1].idle_ttl, Milliseconds(500));
  EXPECT_EQ(r.namespaces[2].max_keys, 64u);
  EXPECT_EQ(r.namespaces[2].idle_ttl, 0);
}

TEST_F(RetentionTest, SpecBlockRejectsMalformedInput) {
  // Duplicate block (parse), empty prefix, duplicate prefix, unknown
  // attributes, and a namespace with no policy at all (sema).
  const char* bad[] = {
      "retention { } retention { }",
      R"(retention { namespace "" { idle_ttl = 1s } })",
      R"(retention { namespace "a." { idle_ttl = 1s },
                     namespace "a." { idle_ttl = 2s } })",
      R"(retention { frobnicate = 3 })",
      R"(retention { namespace "a." { frobnicate = 3 } })",
      R"(retention { namespace "a." { } })",
  };
  for (const char* source : bad) {
    EXPECT_FALSE(AnalyzeSource(source).ok()) << source;
  }
}

TEST_F(RetentionTest, AbsentBlockMeansAbsentPolicy) {
  auto analyzed = AnalyzeSource(
      "guardrail g { trigger: { TIMER(0, 1s) }, rule: { true }, "
      "action: { REPORT() } }");
  ASSERT_TRUE(analyzed.ok());
  EXPECT_FALSE(analyzed.value().retention.has_value());
}

// --- RetentionManager unit behavior (bare store) ---

struct BareRetention {
  FeatureStore store;
  RetentionManager manager;
  SimTime now = 0;

  explicit BareRetention(RetentionOptions options) {
    options.enabled = true;
    manager.Configure(options, &store);
    store.SetObserver([this](const StoreMutation& m, const std::string& key) {
      if (m.is_write()) {
        manager.OnWrite(m, key, now);
      }
    });
  }
};

RetentionOptions OneNamespace(const std::string& prefix, uint64_t max_keys,
                              Duration idle_ttl) {
  RetentionOptions options;
  options.scan_chunk = 64;
  options.namespaces.push_back(RetentionNamespaceOptions{prefix, max_keys, idle_ttl});
  return options;
}

TEST_F(RetentionTest, IdleTtlReclaimsGovernedKeysOnly) {
  BareRetention bare(OneNamespace("tmp.", 0, Seconds(1)));
  bare.store.Save("tmp.a", Value(1));
  bare.store.Save("tmp.b", Value(2));
  bare.store.Save("other.c", Value(3));
  bare.now = Milliseconds(900);
  bare.store.Save("tmp.b", Value(4));  // refresh: b's idle clock restarts

  bare.now = Seconds(1);  // a idle 1s (>= ttl), b idle 100ms
  bare.manager.RunAtBoundary(bare.now);
  EXPECT_FALSE(bare.store.Contains("tmp.a"));
  EXPECT_TRUE(bare.store.Contains("tmp.b"));
  EXPECT_TRUE(bare.store.Contains("other.c"));  // ungoverned: never reclaimed
  EXPECT_EQ(bare.manager.stats().reclaimed_idle, 1u);

  bare.now = Seconds(2);
  bare.manager.RunAtBoundary(bare.now);
  EXPECT_FALSE(bare.store.Contains("tmp.b"));
  EXPECT_EQ(bare.manager.stats().reclaimed_idle, 2u);
}

TEST_F(RetentionTest, IncrementalCursorCoversAllSlotsAcrossBoundaries) {
  RetentionOptions options = OneNamespace("tmp.", 0, Seconds(1));
  options.scan_chunk = 4;  // 32 governed slots need 8 boundaries per lap
  BareRetention bare(options);
  for (int i = 0; i < 32; ++i) {
    bare.store.Save("tmp.k" + std::to_string(i), Value(i));
  }
  bare.now = Seconds(5);
  for (int boundary = 0; boundary < 16; ++boundary) {
    bare.manager.RunAtBoundary(bare.now);
  }
  EXPECT_EQ(bare.manager.stats().reclaimed_idle, 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(bare.store.Contains("tmp.k" + std::to_string(i))) << i;
  }
}

TEST_F(RetentionTest, QuotaEvictsLeastRecentlyWrittenFirst) {
  BareRetention bare(OneNamespace("q.", 2, 0));
  bare.now = Milliseconds(1);
  bare.store.Save("q.old", Value(1));
  bare.now = Milliseconds(2);
  bare.store.Save("q.mid", Value(2));
  bare.now = Milliseconds(3);
  bare.store.Save("q.new", Value(3));

  bare.manager.RunAtBoundary(bare.now);
  EXPECT_FALSE(bare.store.Contains("q.old"));
  EXPECT_TRUE(bare.store.Contains("q.mid"));
  EXPECT_TRUE(bare.store.Contains("q.new"));
  EXPECT_EQ(bare.manager.stats().reclaimed_quota, 1u);
  EXPECT_EQ(bare.manager.stats().quota_breaches, 1u);

  // Refreshing the survivor demotes the other: LRU is by last WRITE.
  bare.now = Milliseconds(4);
  bare.store.Save("q.mid", Value(5));
  bare.now = Milliseconds(5);
  bare.store.Save("q.back", Value(6));
  bare.manager.RunAtBoundary(bare.now);
  EXPECT_FALSE(bare.store.Contains("q.new"));
  EXPECT_TRUE(bare.store.Contains("q.mid"));
  EXPECT_TRUE(bare.store.Contains("q.back"));
}

TEST_F(RetentionTest, QuotaTieBreakIsStableOnSlotId) {
  BareRetention bare(OneNamespace("q.", 2, 0));
  // All four written at the same instant: eviction order must fall back to
  // slot id (intern order), lowest first — deterministically.
  for (const char* key : {"q.a", "q.b", "q.c", "q.d"}) {
    bare.store.Save(key, Value(1));
  }
  bare.manager.RunAtBoundary(bare.now);
  EXPECT_FALSE(bare.store.Contains("q.a"));
  EXPECT_FALSE(bare.store.Contains("q.b"));
  EXPECT_TRUE(bare.store.Contains("q.c"));
  EXPECT_TRUE(bare.store.Contains("q.d"));
  EXPECT_EQ(bare.manager.stats().reclaimed_quota, 2u);
}

TEST_F(RetentionTest, PinnedKeysAreLifecycleExempt) {
  BareRetention bare(OneNamespace("tmp.", 1, Seconds(1)));
  bare.store.Save("tmp.pinned", Value(1));
  bare.store.Pin(bare.store.InternKey("tmp.pinned"));
  bare.store.Save("tmp.loose", Value(2));
  bare.now = Seconds(10);
  bare.manager.RunAtBoundary(bare.now);
  EXPECT_TRUE(bare.store.Contains("tmp.pinned"));
  EXPECT_FALSE(bare.store.Contains("tmp.loose"));
}

TEST_F(RetentionTest, BookkeepingConvergesUnderExternalReclaims) {
  BareRetention bare(OneNamespace("tmp.", 2, 0));
  for (int i = 0; i < 4; ++i) {
    bare.store.Save("tmp.k" + std::to_string(i), Value(i));
  }
  // Two keys vanish behind the manager's back (session-teardown style).
  ASSERT_TRUE(bare.store.ReclaimKey("tmp.k0").ok());
  ASSERT_TRUE(bare.store.ReclaimKey("tmp.k1").ok());
  // The census in the quota pass corrects the drifted count: two live keys
  // fit the budget of two, so nothing more is evicted.
  bare.manager.RunAtBoundary(bare.now);
  EXPECT_TRUE(bare.store.Contains("tmp.k2"));
  EXPECT_TRUE(bare.store.Contains("tmp.k3"));
  EXPECT_EQ(bare.manager.stats().reclaimed_quota, 0u);
}

TEST_F(RetentionTest, QuotaCountsASlotRecycledFromAnotherNamespace) {
  RetentionOptions options = OneNamespace("a.", 5, 0);
  options.namespaces.push_back(RetentionNamespaceOptions{"b.", 1, 0});
  BareRetention bare(options);
  bare.store.Save("a.k", Value(1));
  const KeyId slot = bare.store.FindKey("a.k");
  ASSERT_TRUE(bare.store.ReclaimKey("a.k").ok());  // behind the manager's back
  bare.now = Milliseconds(1);
  bare.store.Save("b.old", Value(1));  // recycles a.k's slot
  ASSERT_EQ(bare.store.FindKey("b.old"), slot);
  bare.now = Milliseconds(2);
  bare.store.Save("b.new", Value(2));
  bare.manager.RunAtBoundary(bare.now);
  // Two live keys against a budget of one: the older write goes.
  EXPECT_FALSE(bare.store.Contains("b.old"));
  EXPECT_TRUE(bare.store.Contains("b.new"));
  EXPECT_EQ(bare.manager.stats().reclaimed_quota, 1u);
  EXPECT_EQ(bare.manager.stats().quota_breaches, 1u);
}

TEST_F(RetentionTest, RecycledSlotIsTrackedAsNewTenant) {
  BareRetention bare(OneNamespace("tmp.", 0, Seconds(1)));
  bare.store.Save("tmp.first", Value(1));
  bare.now = Seconds(2);
  bare.manager.RunAtBoundary(bare.now);
  ASSERT_FALSE(bare.store.Contains("tmp.first"));
  // The recycled slot's new tenant gets a fresh stamp and its own lifecycle.
  bare.store.Save("tmp.second", Value(2));
  bare.manager.RunAtBoundary(bare.now);  // same instant: not idle yet
  EXPECT_TRUE(bare.store.Contains("tmp.second"));
  bare.now = Seconds(4);
  bare.manager.RunAtBoundary(bare.now);
  EXPECT_FALSE(bare.store.Contains("tmp.second"));
  EXPECT_EQ(bare.manager.stats().reclaimed_idle, 2u);
}

TEST_F(RetentionTest, TelemetryKeysPublishValueDiffed) {
  BareRetention bare(OneNamespace("tmp.", 0, Seconds(1)));
  bare.store.Save("tmp.a", Value(std::string("payload")));
  bare.manager.RunAtBoundary(bare.now);
  // First boundary publishes the whole surface.
  EXPECT_TRUE(bare.store.Contains("store.retention.reclaimed"));
  EXPECT_TRUE(bare.store.Contains("store.retention.evictions"));
  EXPECT_TRUE(bare.store.Contains("store.retention.breaches"));
  EXPECT_TRUE(bare.store.Contains("engine.store.bytes.total"));
  EXPECT_TRUE(bare.store.Contains("engine.store.keys.live"));
  EXPECT_TRUE(bare.store.Contains("engine.store.keys.tmp."));
  EXPECT_TRUE(bare.store.Contains("engine.store.bytes.tmp."));
  EXPECT_EQ(bare.store.LoadOr("engine.store.keys.tmp.", Value(0)).NumericOr(-1.0), 1.0);
  const double ns_bytes =
      bare.store.LoadOr("engine.store.bytes.tmp.", Value(0)).NumericOr(0.0);
  EXPECT_GT(ns_bytes, 0.0);

  bare.now = Seconds(2);
  bare.manager.RunAtBoundary(bare.now);
  EXPECT_EQ(bare.store.LoadOr("store.retention.reclaimed", Value(0)).NumericOr(-1.0), 1.0);
  EXPECT_EQ(bare.store.LoadOr("engine.store.keys.tmp.", Value(-1)).NumericOr(-1.0), 0.0);
  EXPECT_EQ(bare.store.LoadOr("engine.store.bytes.tmp.", Value(-1)).NumericOr(-1.0), 0.0);
}

TEST_F(RetentionTest, BuiltinNamespacesFillInUnlessSpecGoverns) {
  RetentionOptions options;
  options.enabled = true;
  RetentionOptions with = WithBuiltinNamespaces(options);
  ASSERT_EQ(with.namespaces.size(), 2u);
  EXPECT_EQ(with.namespaces[0].prefix, "agent.s");
  EXPECT_GT(with.namespaces[0].idle_ttl, 0);
  EXPECT_EQ(with.namespaces[1].prefix, "monitor.");
  EXPECT_GT(with.namespaces[1].idle_ttl, 0);

  // A spec that governs "agent.s" itself keeps its own policy; only the
  // missing builtin is appended.
  RetentionOptions custom = OneNamespace("agent.s", 10, Seconds(5));
  custom.enabled = true;
  RetentionOptions merged = WithBuiltinNamespaces(custom);
  ASSERT_EQ(merged.namespaces.size(), 2u);
  EXPECT_EQ(merged.namespaces[0].max_keys, 10u);
  EXPECT_EQ(merged.namespaces[1].prefix, "monitor.");

  // Disabled options pass through untouched (off == absent).
  RetentionOptions off;
  EXPECT_TRUE(WithBuiltinNamespaces(off).namespaces.empty());
}

TEST_F(RetentionTest, LongestPrefixClassificationWins) {
  RetentionOptions options = OneNamespace("a.", 0, Seconds(100));
  options.namespaces.push_back(RetentionNamespaceOptions{"a.b.", 0, Seconds(1)});
  BareRetention bare(options);
  bare.store.Save("a.x", Value(1));
  bare.store.Save("a.b.x", Value(2));
  bare.now = Seconds(2);  // over the specific TTL, under the general one
  bare.manager.RunAtBoundary(bare.now);
  EXPECT_TRUE(bare.store.Contains("a.x"));
  EXPECT_FALSE(bare.store.Contains("a.b.x"));
}

TEST_F(RetentionTest, ChaosStormReclaimsEverythingGoverned) {
  BareRetention bare(OneNamespace("tmp.", 0, Seconds(100)));
  ChaosEngine chaos(7);
  bare.manager.AttachChaos(&chaos);
  FaultPlanConfig plan;
  plan.mode = FaultMode::kSchedule;
  plan.nth = {0};  // the first boundary is the storm
  ASSERT_TRUE(chaos.Arm(kChaosSiteStoreEvictStorm, plan).ok());

  for (int i = 0; i < 8; ++i) {
    bare.store.Save("tmp.k" + std::to_string(i), Value(i));
  }
  bare.now = Milliseconds(1);  // far under the TTL: only the storm reclaims
  bare.manager.RunAtBoundary(bare.now);
  EXPECT_EQ(bare.manager.stats().chaos_storms, 1u);
  EXPECT_EQ(bare.manager.stats().reclaimed_idle, 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(bare.store.Contains("tmp.k" + std::to_string(i))) << i;
  }
  // The next boundary is calm again.
  bare.store.Save("tmp.back", Value(1));
  bare.manager.RunAtBoundary(bare.now);
  EXPECT_TRUE(bare.store.Contains("tmp.back"));
}

TEST_F(RetentionTest, ChaosBreachCollapsesBudgetsToHalf) {
  BareRetention bare(OneNamespace("q.", 100, 0));  // generous real budget
  ChaosEngine chaos(7);
  bare.manager.AttachChaos(&chaos);
  FaultPlanConfig plan;
  plan.mode = FaultMode::kSchedule;
  plan.nth = {0};
  ASSERT_TRUE(chaos.Arm(kChaosSiteStoreQuotaBreach, plan).ok());

  for (int i = 0; i < 8; ++i) {
    bare.now = Milliseconds(i + 1);
    bare.store.Save("q.k" + std::to_string(i), Value(i));
  }
  bare.manager.RunAtBoundary(bare.now);
  // 8 live, budget collapsed to 4: the 4 oldest writes are evicted.
  EXPECT_EQ(bare.manager.stats().chaos_breaches, 1u);
  EXPECT_EQ(bare.manager.stats().reclaimed_quota, 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(bare.store.Contains("q.k" + std::to_string(i))) << i;
  }
  for (int i = 4; i < 8; ++i) {
    EXPECT_TRUE(bare.store.Contains("q.k" + std::to_string(i))) << i;
  }
}

TEST_F(RetentionTest, ReclaimTrackedTearsDownGovernedSlotsOnly) {
  BareRetention bare(OneNamespace("agent.s", 0, Seconds(100)));
  bare.store.Save("agent.s7.calls", Value(3));
  bare.store.Save("agent.s7.taint", Value(true));
  bare.store.Save("agent.s8.calls", Value(1));
  bare.store.Save("other.key", Value(1));
  EXPECT_TRUE(bare.manager.ReclaimTracked(bare.store.FindKey("agent.s7.calls")));
  EXPECT_TRUE(bare.manager.ReclaimTracked(bare.store.FindKey("agent.s7.taint")));
  EXPECT_FALSE(bare.store.Contains("agent.s7.calls"));
  EXPECT_FALSE(bare.store.Contains("agent.s7.taint"));
  EXPECT_TRUE(bare.store.Contains("agent.s8.calls"));
  EXPECT_EQ(bare.manager.stats().reclaimed_idle, 2u);
  // Ungoverned, already reclaimed and unknown slots are left alone.
  EXPECT_FALSE(bare.manager.ReclaimTracked(bare.store.FindKey("other.key")));
  EXPECT_TRUE(bare.store.Contains("other.key"));
  EXPECT_FALSE(bare.manager.ReclaimTracked(kInvalidKeyId));
  EXPECT_EQ(bare.manager.stats().reclaimed_idle, 2u);
}

// --- The TTL sweep against a reference walk ---

// The boundary walk restated from its contract: at each boundary step the
// cursor over the slot table scan_chunk times (every slot on a storm),
// wrapping at the table's end, and reclaim each tracked slot whose idle age
// has reached its namespace TTL (any tracked slot on a storm). A reclaim of
// a slot the store already freed only untracks it, and so does one of a
// pinned slot.
struct ReferenceSweep {
  struct Slot {
    bool tracked = false;
    int ns = -1;
    uint32_t generation = 0;
    SimTime last_write = 0;
  };
  std::vector<RetentionNamespaceOptions> namespaces;
  uint64_t chunk = 0;
  std::vector<Slot> slots;
  uint64_t cursor = 0;
  RetentionStats stats;

  void OnWrite(const StoreMutation& write, const std::string& key, SimTime now) {
    if (write.id >= slots.size()) {
      slots.resize(write.id + 1);
    }
    Slot& slot = slots[write.id];
    if (write.pinned) {
      slot.tracked = false;
      return;
    }
    if (!slot.tracked || slot.generation != write.generation) {
      slot.generation = write.generation;
      slot.ns = -1;
      size_t longest = 0;
      for (size_t i = 0; i < namespaces.size(); ++i) {
        const std::string& prefix = namespaces[i].prefix;
        if (key.rfind(prefix, 0) == 0 && prefix.size() >= longest) {
          slot.ns = static_cast<int>(i);
          longest = prefix.size();
        }
      }
      slot.tracked = slot.ns >= 0;
    }
    slot.last_write = now;
  }

  std::vector<KeyId> Boundary(SimTime now, bool storm, const FeatureStore& store) {
    std::vector<KeyId> reclaimed;
    stats.chaos_storms += storm ? 1 : 0;
    const uint64_t steps = slots.empty() ? 0 : storm ? slots.size() : chunk;
    for (uint64_t step = 0; step < steps; ++step) {
      cursor = cursor >= slots.size() ? 0 : cursor;
      const KeyId id = static_cast<KeyId>(cursor++);
      Slot& slot = slots[id];
      const Duration ttl = slot.tracked ? namespaces[slot.ns].idle_ttl : 0;
      if (!slot.tracked || (!storm && (ttl <= 0 || now - slot.last_write < ttl))) {
        continue;
      }
      slot.tracked = false;
      if (!store.IsLive(id)) {
        ++stats.stale_tracks_fixed;
      } else if (!store.IsPinned(id)) {
        ++stats.reclaimed_idle;
        reclaimed.push_back(id);
      }
    }
    return reclaimed;
  }
};

TEST_F(RetentionTest, TtlSweepMatchesAReferenceWalkOver1000Seeds) {
  const char* const kPrefixes[] = {"a.", "a.x.", "b.", "u."};  // u. is ungoverned
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    Rng rng(seed);
    RetentionOptions options;
    options.enabled = true;
    options.scan_chunk = static_cast<uint64_t>(rng.UniformInt(1, 24));
    for (int i = 0; i < 3; ++i) {
      // TTLs of 0 (quota-only, never idle) to 40 ms; no key budgets.
      const Duration ttl = rng.Bernoulli(0.2) ? 0 : Milliseconds(rng.UniformInt(1, 40));
      options.namespaces.push_back(RetentionNamespaceOptions{kPrefixes[i], 0, ttl});
    }
    FeatureStore store;
    RetentionManager manager;
    ReferenceSweep reference;
    reference.namespaces = options.namespaces;
    reference.chunk = options.scan_chunk;
    SimTime now = 0;
    std::vector<KeyId> reclaimed;
    store.SetObserver([&](const StoreMutation& m, const std::string& key) {
      if (m.is_write()) {
        manager.OnWrite(m, key, now);
        reference.OnWrite(m, key, now);
      } else if (m.kind == StoreMutation::Kind::kErase && m.reclaim) {
        reclaimed.push_back(m.id);
      }
    });
    manager.Configure(options, &store);
    // Storm boundaries: store.evict_storm on a seeded schedule.
    ChaosEngine chaos(seed);
    FaultPlanConfig plan;
    plan.mode = FaultMode::kSchedule;
    for (uint64_t b = 0; b < 200; ++b) {
      if (rng.Bernoulli(0.03)) {
        plan.nth.push_back(b);
      }
    }
    if (!plan.nth.empty()) {
      ASSERT_TRUE(chaos.Arm(kChaosSiteStoreEvictStorm, plan).ok());
    }
    manager.AttachChaos(&chaos);

    uint64_t boundary = 0;
    size_t next_storm = 0;
    for (int op = 0; op < 600 && boundary < 200; ++op) {
      const std::string key = std::string(kPrefixes[rng.UniformInt(0, 3)]) + "k" +
                              std::to_string(rng.UniformInt(0, 9));
      const double roll = rng.NextDouble();
      if (roll < 0.5) {
        store.Save(key, Value(op));  // new keys recycle freed slots
      } else if (roll < 0.6) {
        (void)store.ReclaimKey(key);  // behind the manager's back (kill path)
      } else if (roll < 0.63) {
        const KeyId id = store.FindKey(key);
        if (id != kInvalidKeyId) {
          store.Pin(id);
        }
      } else {
        now += rng.Bernoulli(0.1) ? Milliseconds(rng.UniformInt(20, 80))
                                  : Microseconds(rng.UniformInt(0, 3000));
        const bool storm = next_storm < plan.nth.size() && plan.nth[next_storm] == boundary;
        next_storm += storm ? 1 : 0;
        ++boundary;
        const std::vector<KeyId> expected = reference.Boundary(now, storm, store);
        reclaimed.clear();
        manager.RunAtBoundary(now);
        const RetentionStats& got = manager.stats();
        ASSERT_EQ(reclaimed, expected) << "seed " << seed << " boundary " << boundary;
        ASSERT_EQ(manager.cursor(), reference.cursor)
            << "seed " << seed << " boundary " << boundary;
        ASSERT_EQ(got.reclaimed_idle, reference.stats.reclaimed_idle) << "seed " << seed;
        ASSERT_EQ(got.stale_tracks_fixed, reference.stats.stale_tracks_fixed)
            << "seed " << seed;
        ASSERT_EQ(got.chaos_storms, reference.stats.chaos_storms) << "seed " << seed;
        ASSERT_EQ(got.reclaimed_quota, 0u) << "seed " << seed;
        ASSERT_EQ(got.quota_breaches, 0u) << "seed " << seed;
      }
    }
  }
}

// --- Engine / kernel integration ---

constexpr char kKernelRetentionSpec[] = R"(
  retention {
    scan_chunk = 1024
    namespace "tmp." { idle_ttl = 1s }
    namespace "q." { max_keys = 2 }
  }
)";

TEST_F(RetentionTest, KernelReclaimsIdleKeysAtCalloutBoundaries) {
  Kernel kernel;
  ASSERT_TRUE(kernel.LoadGuardrails(kKernelRetentionSpec).ok());
  ASSERT_TRUE(kernel.engine().retention().enabled());
  kernel.Run(Milliseconds(1));
  kernel.store().Save("tmp.scratch", Value(42));
  kernel.Run(Milliseconds(500));
  EXPECT_TRUE(kernel.store().Contains("tmp.scratch"));  // not idle yet
  kernel.Run(Seconds(2));
  EXPECT_FALSE(kernel.store().Contains("tmp.scratch"));
  EXPECT_EQ(LoadNum(kernel, "store.retention.reclaimed"), 1.0);
}

TEST_F(RetentionTest, QuotaBreachFiresOnchangeCorrectiveHook) {
  Kernel kernel;
  const std::string spec = std::string(kKernelRetentionSpec) + R"(
    guardrail quota_hook {
      trigger: { ONCHANGE(store.retention.breaches) },
      rule: { LOAD_OR(store.retention.breaches, 0) == 0 },
      action: { INCR(hook.fired) }
    }
  )";
  ASSERT_TRUE(kernel.LoadGuardrails(spec).ok());
  kernel.Run(Milliseconds(1));
  kernel.store().Save("q.a", Value(1));
  kernel.store().Save("q.b", Value(2));
  kernel.store().Save("q.c", Value(3));
  kernel.Run(Milliseconds(2));  // boundary: quota pass evicts and publishes
  kernel.Run(Milliseconds(3));  // one more boundary in case the cascade queued
  EXPECT_EQ(LoadNum(kernel, "store.retention.evictions"), 1.0);
  EXPECT_GE(LoadNum(kernel, "hook.fired"), 1.0);
}

TEST_F(RetentionTest, UnloadedMonitorCountersAgeOut) {
  Kernel kernel;
  const std::string spec = std::string(kKernelRetentionSpec) + R"(
    guardrail beat {
      trigger: { TIMER(10ms, 10ms) },
      rule: { true },
      action: { REPORT() }
    }
  )";
  ASSERT_TRUE(kernel.LoadGuardrails(spec).ok());
  kernel.Run(Milliseconds(100));
  ASSERT_TRUE(kernel.store().Contains("monitor.beat.uptime_evals"));

  // While loaded, the counter is pinned: even ancient idle age cannot touch
  // it (the builtin "monitor." TTL is 600s).
  kernel.Run(Seconds(700));
  EXPECT_TRUE(kernel.store().Contains("monitor.beat.uptime_evals"));

  // Unload hands the orphaned counter to retention; it ages out via the
  // builtin TTL instead of leaking forever.
  ASSERT_TRUE(kernel.engine().Unload("beat").ok());
  kernel.Run(Seconds(700) + Seconds(601));
  EXPECT_FALSE(kernel.store().Contains("monitor.beat.uptime_evals"));
}

// A pin is a flag, not a count. Unloading a monitor must not unpin its
// counter while another loaded monitor's keyed call has the slot baked in:
// retention would reclaim the slot, the store would recycle it for another
// key, and the reader would see that key's value.
TEST_F(RetentionTest, UnloadKeepsACounterAnotherMonitorReadsPinned) {
  Kernel kernel;
  ASSERT_TRUE(kernel.LoadGuardrails(R"(
    retention { namespace "monitor." { idle_ttl = 1s } }
    guardrail a { trigger: { TIMER(10ms, 10ms) }, rule: { true }, action: { REPORT() } }
    guardrail b {
      trigger: { TIMER(10ms, 10ms) },
      rule: { LOAD_OR(monitor.a.uptime_evals, 0) < 1000 },
      action: { REPORT() }
    }
  )").ok());
  kernel.Run(Milliseconds(100));
  const KeyId counter = kernel.store().FindKey("monitor.a.uptime_evals");
  ASSERT_NE(counter, kInvalidKeyId);
  ASSERT_TRUE(kernel.engine().Unload("a").ok());
  EXPECT_TRUE(kernel.store().IsPinned(counter));

  kernel.Run(Seconds(3));
  EXPECT_TRUE(kernel.store().IsLive(counter));
  kernel.store().Save("tmp.fresh", Value(5000));
  EXPECT_NE(kernel.store().FindKey("tmp.fresh"), counter);
  kernel.Run(Seconds(4));
  EXPECT_EQ(kernel.engine().StatsFor("b")->violations, 0u);
  EXPECT_EQ(kernel.store().LoadOr(counter, Value(0)).NumericOr(0), 10.0);
}

agent::ToolCallEvent Call(SimTime at, uint64_t session, agent::ToolClass tool) {
  agent::ToolCallEvent event;
  event.at = at;
  event.session = session;
  event.tool = tool;
  event.fingerprint = 0x1234;
  return event;
}

TEST_F(RetentionTest, SessionEndEagerlyReclaimsTheKeyFamily) {
  Kernel kernel;
  ASSERT_TRUE(kernel.LoadGuardrails(kKernelRetentionSpec).ok());
  kernel.Run(Milliseconds(1));
  kernel.OnToolCall(Call(Milliseconds(1), 7, agent::ToolClass::kFile));
  kernel.OnToolCall(Call(Milliseconds(2), 7, agent::ToolClass::kNet));
  kernel.OnToolCall(Call(Milliseconds(2), 8, agent::ToolClass::kFile));
  // Contains() sees scalars only; the "calls" series hides behind the
  // per-session "seen" sentinel and the per-tool counters.
  ASSERT_TRUE(kernel.store().Contains(AgentSessionKey(7, "seen")));
  ASSERT_TRUE(kernel.store().Contains(AgentSessionKey(7, "file")));
  ASSERT_TRUE(kernel.store().Contains(AgentSessionKey(7, "net")));

  EXPECT_GT(kernel.OnSessionEnd(7), 0u);
  EXPECT_FALSE(kernel.store().Contains(AgentSessionKey(7, "seen")));
  EXPECT_FALSE(kernel.store().Contains(AgentSessionKey(7, "file")));
  EXPECT_FALSE(kernel.store().Contains(AgentSessionKey(7, "net")));
  // The other session is untouched, and the globals (pinned) survive.
  EXPECT_TRUE(kernel.store().Contains(AgentSessionKey(8, "seen")));
  EXPECT_TRUE(kernel.store().Contains(kAgentKeySessions));
  // A second end is a no-op.
  EXPECT_EQ(kernel.OnSessionEnd(7), 0u);
}

TEST_F(RetentionTest, KillPathReclaimsDataButKeepsTheLatch) {
  Kernel kernel;
  ASSERT_TRUE(kernel.LoadGuardrails(kKernelRetentionSpec).ok());
  ASSERT_TRUE(kernel.agent_governor().reclaim_on_kill());
  kernel.Run(Milliseconds(1));
  kernel.OnToolCall(Call(Milliseconds(1), 4, agent::ToolClass::kFile));
  ASSERT_TRUE(kernel.store().Contains(AgentSessionKey(4, "seen")));
  ASSERT_TRUE(kernel.store().Contains(AgentSessionKey(4, "file")));

  kernel.store().Save(kAgentCtlKillSession, Value(static_cast<int64_t>(4)));
  const AgentAdmitVerdict verdict =
      kernel.OnToolCall(Call(Milliseconds(2), 4, agent::ToolClass::kNet));
  EXPECT_EQ(verdict, AgentAdmitVerdict::kKill);
  // Data keys are gone; the "killed" latch is kept so later calls from the
  // killed session keep short-circuiting.
  EXPECT_FALSE(kernel.store().Contains(AgentSessionKey(4, "seen")));
  EXPECT_FALSE(kernel.store().Contains(AgentSessionKey(4, "file")));
  EXPECT_TRUE(kernel.store()
                  .LoadOr(AgentSessionKey(4, "killed"), Value(false))
                  .AsBool()
                  .value_or(false));
  EXPECT_EQ(kernel.OnToolCall(Call(Milliseconds(3), 4, agent::ToolClass::kNet)),
            AgentAdmitVerdict::kKill);
}

TEST_F(RetentionTest, WarmRestartCarriesRetentionState) {
  const fs::path dir = FreshTestDir("retention-restart");
  PersistOptions popts;
  popts.dir = dir.string();
  PersistManager persist(popts);

  Kernel kernel;
  kernel.AttachPersist(&persist);
  ASSERT_TRUE(kernel.LoadGuardrails(kKernelRetentionSpec).ok());
  ASSERT_TRUE(persist.Open().ok());
  kernel.Run(Milliseconds(1));
  kernel.store().Save("tmp.gone", Value(1));
  kernel.Run(Seconds(2));  // reclaimed at a committed boundary
  ASSERT_EQ(LoadNum(kernel, "store.retention.reclaimed"), 1.0);
  kernel.store().Save("tmp.alive", Value(2));
  kernel.Run(Seconds(2) + Milliseconds(100));

  kernel.Panic();
  auto recovery = kernel.Reboot();
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  EXPECT_FALSE(recovery.value().cold_start);
  // The retention image restored the counters; membership was resynced from
  // the restored store, so the survivor is governed again and ages out.
  EXPECT_TRUE(kernel.engine().retention().enabled());
  EXPECT_EQ(kernel.engine().retention().stats().reclaimed_idle, 1u);
  EXPECT_EQ(LoadNum(kernel, "store.retention.reclaimed"), 1.0);
  EXPECT_FALSE(kernel.store().Contains("tmp.gone"));
  EXPECT_TRUE(kernel.store().Contains("tmp.alive"));
  kernel.Run(kernel.now() + Seconds(2));
  EXPECT_FALSE(kernel.store().Contains("tmp.alive"));
  fs::remove_all(dir);
}

// --- Off == absent ---

TEST_F(RetentionTest, WithoutABlockNothingChanges) {
  Kernel kernel;
  ASSERT_TRUE(kernel.LoadGuardrails(
                  "guardrail g { trigger: { TIMER(10ms, 10ms) }, "
                  "rule: { true }, action: { REPORT() } }")
                  .ok());
  EXPECT_FALSE(kernel.engine().retention().enabled());
  EXPECT_FALSE(kernel.agent_governor().reclaim_on_kill());
  kernel.Run(Milliseconds(1));
  kernel.store().Save("tmp.scratch", Value(1));
  kernel.OnToolCall(Call(Milliseconds(1), 4, agent::ToolClass::kFile));
  kernel.store().Save(kAgentCtlKillSession, Value(static_cast<int64_t>(4)));
  kernel.OnToolCall(Call(Milliseconds(2), 4, agent::ToolClass::kNet));
  kernel.Run(Seconds(1000));

  // No retention surface interned, nothing reclaimed: the killed session's
  // data keys and the scratch key live forever, exactly like the seed.
  EXPECT_EQ(kernel.store().FindKey("store.retention.reclaimed"), kInvalidKeyId);
  EXPECT_EQ(kernel.store().FindKey("engine.store.bytes.total"), kInvalidKeyId);
  EXPECT_TRUE(kernel.store().Contains("tmp.scratch"));
  EXPECT_TRUE(kernel.store().Contains(AgentSessionKey(4, "seen")));
  EXPECT_TRUE(kernel.store().Contains(AgentSessionKey(4, "file")));
  EXPECT_EQ(kernel.OnSessionEnd(4), 0u);
  EXPECT_TRUE(kernel.store().Contains(AgentSessionKey(4, "seen")));
  EXPECT_TRUE(kernel.store().Contains(AgentSessionKey(4, "file")));
  EXPECT_EQ(kernel.store().stale_hits(), 0u);
}

}  // namespace
}  // namespace osguard
