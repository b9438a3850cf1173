// Feature store tests: typed values, SAVE/LOAD semantics, windowed
// aggregates, retention, and the single-owner threading contract.

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "src/store/feature_store.h"

namespace osguard {
namespace {

// --- Value ---

TEST(ValueTest, TypesAreTagged) {
  EXPECT_EQ(Value().type(), ValueType::kNil);
  EXPECT_EQ(Value(int64_t{5}).type(), ValueType::kInt);
  EXPECT_EQ(Value(2.5).type(), ValueType::kFloat);
  EXPECT_EQ(Value(true).type(), ValueType::kBool);
  EXPECT_EQ(Value("hello").type(), ValueType::kString);
  EXPECT_EQ(Value(std::vector<Value>{Value(1)}).type(), ValueType::kList);
}

TEST(ValueTest, NumericConversions) {
  EXPECT_EQ(Value(5).AsInt().value(), 5);
  EXPECT_EQ(Value(5).AsFloat().value(), 5.0);
  EXPECT_EQ(Value(2.9).AsInt().value(), 2);  // truncates
  EXPECT_FALSE(Value("text").AsInt().ok());
  EXPECT_FALSE(Value().AsFloat().ok());
}

TEST(ValueTest, BoolConversions) {
  EXPECT_TRUE(Value(true).AsBool().value());
  EXPECT_TRUE(Value(1).AsBool().value());
  EXPECT_FALSE(Value(0).AsBool().value());
  EXPECT_TRUE(Value(0.5).AsBool().value());
  EXPECT_FALSE(Value("x").AsBool().ok());
}

TEST(ValueTest, NumericOrFallsBack) {
  EXPECT_EQ(Value(7).NumericOr(-1), 7.0);
  EXPECT_EQ(Value(true).NumericOr(-1), 1.0);
  EXPECT_EQ(Value("s").NumericOr(-1), -1.0);
  EXPECT_EQ(Value().NumericOr(-1), -1.0);
}

TEST(ValueTest, ToStringRendersAllTypes) {
  EXPECT_EQ(Value().ToString(), "nil");
  EXPECT_EQ(Value(3).ToString(), "3");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value("hi").ToString(), "\"hi\"");
  EXPECT_EQ(Value(std::vector<Value>{Value(1), Value(2)}).ToString(), "{1, 2}");
}

TEST(ValueTest, EqualityIsDeep) {
  EXPECT_EQ(Value(3), Value(3));
  EXPECT_FALSE(Value(3) == Value(4));
  EXPECT_FALSE(Value(3) == Value(3.0));  // type-sensitive
  EXPECT_EQ(Value(std::vector<Value>{Value(1)}), Value(std::vector<Value>{Value(1)}));
}

TEST(ValueTest, ListAccess) {
  Value list(std::vector<Value>{Value(1), Value("a")});
  auto elements = list.AsList();
  ASSERT_TRUE(elements.ok());
  EXPECT_EQ(elements.value().size(), 2u);
  EXPECT_FALSE(Value(3).AsList().ok());
}

// --- Scalar KV ---

TEST(FeatureStoreTest, SaveLoadRoundTrip) {
  FeatureStore store;
  store.Save("k", Value(42));
  EXPECT_EQ(store.Load("k").value().AsInt().value(), 42);
}

TEST(FeatureStoreTest, LoadMissingIsNotFound) {
  FeatureStore store;
  EXPECT_EQ(store.Load("nope").status().code(), ErrorCode::kNotFound);
}

TEST(FeatureStoreTest, SaveOverwrites) {
  FeatureStore store;
  store.Save("k", Value(1));
  store.Save("k", Value("now a string"));
  EXPECT_EQ(store.Load("k").value().type(), ValueType::kString);
}

TEST(FeatureStoreTest, LoadOrDefault) {
  FeatureStore store;
  EXPECT_EQ(store.LoadOr("nope", Value(9)).AsInt().value(), 9);
  store.Save("yes", Value(1));
  EXPECT_EQ(store.LoadOr("yes", Value(9)).AsInt().value(), 1);
}

TEST(FeatureStoreTest, StoredNilIsDistinctFromMissing) {
  FeatureStore store;
  store.Save("nil_key", Value());
  EXPECT_TRUE(store.Contains("nil_key"));
  EXPECT_TRUE(store.Load("nil_key").value().is_nil());
  EXPECT_FALSE(store.Contains("other"));
}

TEST(FeatureStoreTest, EraseRemoves) {
  FeatureStore store;
  store.Save("k", Value(1));
  EXPECT_TRUE(store.Erase("k").ok());
  EXPECT_FALSE(store.Contains("k"));
  EXPECT_EQ(store.Erase("k").code(), ErrorCode::kNotFound);
}

TEST(FeatureStoreTest, IncrementCreatesAndAccumulates) {
  FeatureStore store;
  EXPECT_EQ(store.Increment("c"), 1.0);
  EXPECT_EQ(store.Increment("c"), 2.0);
  EXPECT_EQ(store.Increment("c", 0.5), 2.5);
  EXPECT_EQ(store.Increment("c", -2.5), 0.0);
}

TEST(FeatureStoreTest, ScalarKeysSorted) {
  FeatureStore store;
  store.Save("b", Value(1));
  store.Save("a", Value(1));
  store.Save("c", Value(1));
  EXPECT_EQ(store.ScalarKeys(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(store.scalar_count(), 3u);
}

// --- Time series ---

class SeriesTest : public ::testing::Test {
 protected:
  void Fill(const std::string& key, std::initializer_list<std::pair<int, double>> samples) {
    for (const auto& [sec, value] : samples) {
      store_.Observe(key, Seconds(sec), value);
    }
  }
  FeatureStore store_;
};

TEST_F(SeriesTest, AggregatesOverWindow) {
  Fill("s", {{1, 10}, {2, 20}, {3, 30}});
  const SimTime now = Seconds(3);
  EXPECT_EQ(store_.Aggregate("s", AggKind::kCount, Seconds(10), now).value(), 3.0);
  EXPECT_EQ(store_.Aggregate("s", AggKind::kSum, Seconds(10), now).value(), 60.0);
  EXPECT_EQ(store_.Aggregate("s", AggKind::kMean, Seconds(10), now).value(), 20.0);
  EXPECT_EQ(store_.Aggregate("s", AggKind::kMin, Seconds(10), now).value(), 10.0);
  EXPECT_EQ(store_.Aggregate("s", AggKind::kMax, Seconds(10), now).value(), 30.0);
  EXPECT_EQ(store_.Aggregate("s", AggKind::kNewest, Seconds(10), now).value(), 30.0);
  EXPECT_EQ(store_.Aggregate("s", AggKind::kOldest, Seconds(10), now).value(), 10.0);
}

TEST_F(SeriesTest, WindowIsHalfOpenOnTheLeft) {
  Fill("s", {{1, 10}, {2, 20}, {3, 30}});
  // Window (1s, 3s]: the sample exactly at the cutoff is excluded.
  EXPECT_EQ(store_.Aggregate("s", AggKind::kCount, Seconds(2), Seconds(3)).value(), 2.0);
}

TEST_F(SeriesTest, FutureSamplesExcluded) {
  Fill("s", {{1, 10}, {5, 50}});
  EXPECT_EQ(store_.Aggregate("s", AggKind::kCount, Seconds(10), Seconds(2)).value(), 1.0);
}

TEST_F(SeriesTest, RatePerSecond) {
  Fill("s", {{1, 1}, {2, 1}, {3, 1}, {4, 1}});
  EXPECT_EQ(store_.Aggregate("s", AggKind::kRate, Seconds(4), Seconds(4)).value(), 1.0);
  EXPECT_EQ(store_.Aggregate("s", AggKind::kRate, Seconds(2), Seconds(4)).value(), 1.0);
}

TEST_F(SeriesTest, StdDevMatchesStreamingStats) {
  Fill("s", {{1, 2}, {1, 4}, {1, 4}, {1, 4}, {1, 5}, {1, 5}, {1, 7}, {1, 9}});
  EXPECT_NEAR(store_.Aggregate("s", AggKind::kStdDev, Seconds(10), Seconds(1)).value(),
              std::sqrt(32.0 / 7.0), 1e-12);
}

TEST_F(SeriesTest, EmptyWindowSemantics) {
  EXPECT_EQ(store_.Aggregate("missing", AggKind::kCount, Seconds(1), 0).value(), 0.0);
  EXPECT_EQ(store_.Aggregate("missing", AggKind::kSum, Seconds(1), 0).value(), 0.0);
  EXPECT_EQ(store_.Aggregate("missing", AggKind::kRate, Seconds(1), 0).value(), 0.0);
  EXPECT_FALSE(store_.Aggregate("missing", AggKind::kMean, Seconds(1), 0).ok());
  Fill("old", {{1, 5}});
  EXPECT_FALSE(store_.Aggregate("old", AggKind::kMean, Seconds(1), Seconds(100)).ok());
}

TEST_F(SeriesTest, QuantileOverWindow) {
  for (int i = 1; i <= 99; ++i) {
    store_.Observe("q", Seconds(1), static_cast<double>(i));
  }
  EXPECT_NEAR(store_.AggregateQuantile("q", 0.5, Seconds(10), Seconds(1)).value(), 50.0, 0.01);
  EXPECT_NEAR(store_.AggregateQuantile("q", 0.99, Seconds(10), Seconds(1)).value(), 98.02, 0.1);
  EXPECT_FALSE(store_.AggregateQuantile("none", 0.5, Seconds(10), 0).ok());
}

TEST_F(SeriesTest, WindowSamplesCopiesInOrder) {
  Fill("s", {{1, 10}, {2, 20}, {3, 30}});
  EXPECT_EQ(store_.WindowSamples("s", Seconds(10), Seconds(3)),
            (std::vector<double>{10, 20, 30}));
  EXPECT_EQ(store_.WindowSamples("s", Seconds(1), Seconds(3)), (std::vector<double>{30}));
  EXPECT_TRUE(store_.WindowSamples("nope", Seconds(10), Seconds(3)).empty());
}

TEST_F(SeriesTest, MaxSamplesEviction) {
  store_.SetSeriesOptions("s", SeriesOptions{.max_samples = 3, .max_age = Seconds(1000)});
  for (int i = 1; i <= 10; ++i) {
    store_.Observe("s", Seconds(i), static_cast<double>(i));
  }
  EXPECT_EQ(store_.WindowSamples("s", Seconds(1000), Seconds(10)),
            (std::vector<double>{8, 9, 10}));
}

TEST_F(SeriesTest, MaxAgeEviction) {
  store_.SetSeriesOptions("s", SeriesOptions{.max_samples = 100000, .max_age = Seconds(5)});
  Fill("s", {{1, 1}, {2, 2}, {10, 10}});
  // Observing at t=10 evicts everything older than t=5.
  EXPECT_EQ(store_.WindowSamples("s", Seconds(1000), Seconds(10)), (std::vector<double>{10}));
}

TEST_F(SeriesTest, OutOfOrderSamplesClampToNewest) {
  store_.Observe("s", Seconds(5), 1.0);
  store_.Observe("s", Seconds(3), 2.0);  // clamped to t=5
  EXPECT_EQ(store_.Aggregate("s", AggKind::kCount, Seconds(1), Seconds(5)).value(), 2.0);
}

TEST_F(SeriesTest, ClearWipesEverything) {
  store_.Save("scalar", Value(1));
  Fill("series", {{1, 1}});
  store_.Clear();
  EXPECT_EQ(store_.scalar_count(), 0u);
  EXPECT_EQ(store_.series_count(), 0u);
}

// --- Threading: the thread that constructs a store owns it ---
//
// The store takes no lock: one thread drives a Kernel and everything it
// owns. A second thread that touches the store aborts instead of racing.

constexpr char kNotOwnerMessage[] =
    "thread that did not construct it; one thread drives a Kernel";

TEST(FeatureStoreOwnerDeathTest, WriteFromAnotherThreadAborts) {
  FeatureStore store;
  store.Save("counter", Value(1.0));
  EXPECT_DEATH(std::thread([&store] { store.Increment("counter"); }).join(), kNotOwnerMessage);
}

TEST(FeatureStoreOwnerDeathTest, ReadFromAnotherThreadAborts) {
  FeatureStore store;
  const KeyId id = store.InternKey("lat");
  store.Observe(id, Seconds(1), 1.0);
  EXPECT_DEATH(std::thread([&store, id] {
                 (void)store.Aggregate(id, AggKind::kCount, Seconds(10), Seconds(10));
               }).join(),
               kNotOwnerMessage);
}

TEST(FeatureStoreOwnerTest, TheConstructingThreadOwnsTheStore) {
  double value = 0.0;
  std::thread([&value] {
    FeatureStore store;
    store.Increment("k", 2.0);
    value = store.LoadOr("k", Value(0.0)).NumericOr(0.0);
  }).join();
  EXPECT_EQ(value, 2.0);
}

// --- Key lifecycle: generation-tagged slots, reclamation, free-list recycle --

TEST(StoreLifecycleTest, ReclaimFreesSlotAndRecyclesWithBumpedGeneration) {
  FeatureStore store;
  const KeyId id = store.InternKey("session.a");
  store.Save(id, Value(int64_t{7}));
  const uint32_t gen0 = store.GenerationOf(id);
  EXPECT_TRUE(store.IsLive(id));
  ASSERT_TRUE(store.ReclaimKey("session.a").ok());
  EXPECT_FALSE(store.IsLive(id));
  EXPECT_FALSE(store.Contains("session.a"));
  // The next intern recycles the freed slot (LIFO) under a new generation.
  const KeyId recycled = store.InternKey("session.b");
  EXPECT_EQ(recycled, id);
  EXPECT_TRUE(store.IsLive(id));
  EXPECT_GT(store.GenerationOf(id), gen0);
  EXPECT_EQ(store.KeyName(id), "session.b");
}

TEST(StoreLifecycleTest, ReclaimErrorsAreTyped) {
  FeatureStore store;
  EXPECT_EQ(store.ReclaimKey("absent").code(), ErrorCode::kNotFound);
  const KeyId id = store.InternKey("pinned.key");
  store.Pin(id);
  EXPECT_EQ(store.ReclaimKeyId(id).code(), ErrorCode::kFailedPrecondition);
  store.Unpin(id);
  EXPECT_TRUE(store.ReclaimKeyId(id).ok());
  EXPECT_EQ(store.ReclaimKeyId(id).code(), ErrorCode::kNotFound);  // already dead
}

TEST(StoreLifecycleTest, StaleCachedIdReadsAsAbsentAndCannotResurrect) {
  FeatureStore store;
  const KeyId id = store.InternKey("owner.old");
  store.Save(id, Value(int64_t{1}));
  const uint32_t old_gen = store.GenerationOf(id);
  ASSERT_TRUE(store.ReclaimKeyId(id).ok());
  const KeyId tenant = store.InternKey("owner.new");
  ASSERT_EQ(tenant, id);  // recycled
  store.Save(tenant, Value(int64_t{42}));
  // Tagged reads with the stale generation see "absent", never the new
  // tenant's value, and the staleness is counted.
  const uint64_t hits_before = store.stale_hits();
  EXPECT_EQ(store.LoadOrTagged(id, old_gen, Value(int64_t{-1})).AsInt().value_or(0), -1);
  EXPECT_FALSE(store.ContainsTagged(id, old_gen));
  EXPECT_GT(store.stale_hits(), hits_before);
  // Fresh-generation reads see the new tenant.
  EXPECT_EQ(store.LoadOrTagged(id, store.GenerationOf(id), Value(int64_t{-1}))
                .AsInt()
                .value_or(0),
            42);
  // Untagged KeyId writes against a dead slot are no-ops (cannot resurrect).
  ASSERT_TRUE(store.ReclaimKey("owner.new").ok());
  store.Save(id, Value(int64_t{9}));
  EXPECT_FALSE(store.IsLive(id));
}

TEST(StoreLifecycleTest, PinnedCachedKeyIdSurvivesHeavyChurn) {
  // The monitor-cached-id stability contract: an id the engine pinned keeps
  // resolving to the same key with the same generation no matter how much
  // reclamation churn happens around it.
  FeatureStore store;
  const KeyId pinned = store.InternKey("engine.pinned.counter");
  store.Pin(pinned);
  store.Save(pinned, Value(int64_t{5}));
  const uint32_t gen = store.GenerationOf(pinned);
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) {
      store.Save("churn.k" + std::to_string(i), Value(int64_t{i}));
    }
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(store.ReclaimKey("churn.k" + std::to_string(i)).ok());
    }
  }
  EXPECT_EQ(store.GenerationOf(pinned), gen);
  EXPECT_EQ(store.KeyName(pinned), "engine.pinned.counter");
  EXPECT_EQ(store.LoadOrTagged(pinned, gen, Value(int64_t{0})).AsInt().value_or(0), 5);
  EXPECT_EQ(store.stale_hits(), 0u);
}

TEST(StoreLifecycleTest, ApproxBytesTracksWritesAndReclaims) {
  FeatureStore store;
  const uint64_t empty = store.approx_bytes();
  store.Save("bytes.scalar", Value(std::string(512, 'x')));
  const uint64_t with_payload = store.approx_bytes();
  EXPECT_GE(with_payload, empty + 512);
  EXPECT_EQ(store.SlotApproxBytes(store.InternKey("bytes.scalar")),
            with_payload - empty);
  ASSERT_TRUE(store.ReclaimKey("bytes.scalar").ok());
  EXPECT_LT(store.approx_bytes(), with_payload);
  EXPECT_EQ(store.live_key_count(), 0u);
}

TEST(StoreLifecycleTest, SlotApproxBytesUsesFixedPrices) {
  // A slot is priced at 104 B plus its key and string payload, a series at
  // 264 B plus 40 B per sample (StoreSampleDump) and 24 B per extremum
  // (StoreExtremumDump), whatever the standard library's containers weigh.
  FeatureStore store;
  store.Save("scalar", Value(std::string("abcd")));
  EXPECT_EQ(store.SlotApproxBytes(store.FindKey("scalar")), 104u + 6u + 4u);
  store.Save("number", Value(2.5));
  EXPECT_EQ(store.SlotApproxBytes(store.FindKey("number")), 104u + 6u);
  // Samples 3, 1, 2 retain all three, minima {1, 2} and maxima {3, 2}.
  store.Observe("lat", Seconds(1), 3.0);
  store.Observe("lat", Seconds(2), 1.0);
  store.Observe("lat", Seconds(3), 2.0);
  EXPECT_EQ(store.SlotApproxBytes(store.FindKey("lat")), 104u + 3u + 264u + 3u * 40u + 4u * 24u);
  EXPECT_EQ(store.approx_bytes(), 114u + 110u + 587u);
}

TEST(StoreLifecycleTest, SlotAddressesSurviveGrowthRecycleAndTrim) {
  // KeyName() references and the observer's key reference point into
  // the slot itself, so a slot must never move while its id is in the
  // table: not when the table grows (here from inside the observer), not
  // when another slot is recycled, and not when Clear() trims the tail.
  FeatureStore store;
  const KeyId held = store.InternKey("held.key");
  store.Pin(held);
  const std::string* name = &store.KeyName(held);
  const std::string* observed = nullptr;
  int observer_interns = 0;
  store.SetObserver([&](const StoreMutation& m, const std::string& key) {
    if (m.id != held) {
      return;
    }
    observed = &key;
    for (int i = 0; i < 1000; ++i) {
      store.InternKey("observer.k" + std::to_string(observer_interns++));
    }
    // The slot must not have moved while `key` referred into it.
    ASSERT_EQ(&store.KeyName(held), &key);
    EXPECT_EQ(key, "held.key");
  });
  store.Save(held, Value(int64_t{1}));
  ASSERT_EQ(observed, name);

  for (int i = 0; i < 10000; ++i) {
    store.InternKey("grow.k" + std::to_string(i));
  }
  store.Save(held, Value(int64_t{2}));
  EXPECT_GE(store.key_count(), 12001u);
  ASSERT_EQ(&store.KeyName(held), name);
  ASSERT_EQ(observed, name);

  const KeyId victim = store.FindKey("grow.k5000");
  ASSERT_TRUE(store.ReclaimKeyId(victim).ok());
  EXPECT_EQ(store.InternKey("recycled.k"), victim);
  ASSERT_EQ(&store.KeyName(held), name);
  store.Save(held, Value(int64_t{3}));

  // Free every key but held.key and the recycled one, so Clear() trims the
  // tail across many chunks down to the recycled slot.
  for (KeyId id = 0; id < store.key_count(); ++id) {
    if (id != held && id != victim && store.IsLive(id)) {
      ASSERT_TRUE(store.ReclaimKeyId(id).ok());
    }
  }
  store.Clear();
  EXPECT_EQ(store.key_count(), static_cast<size_t>(victim) + 1);
  ASSERT_EQ(&store.KeyName(held), name);
  EXPECT_EQ(store.KeyName(victim), "recycled.k");
  store.Save(held, Value(int64_t{4}));
  ASSERT_EQ(observed, name);
  EXPECT_EQ(*observed, "held.key");
  EXPECT_EQ(observer_interns, 4000);
}

TEST(StoreLifecycleTest, ClearCompactsFreeListedSlots) {
  FeatureStore store;
  for (int i = 0; i < 8; ++i) {
    store.Save("compact.k" + std::to_string(i), Value(int64_t{i}));
  }
  for (int i = 4; i < 8; ++i) {
    ASSERT_TRUE(store.ReclaimKey("compact.k" + std::to_string(i)).ok());
  }
  const KeyId survivor = store.InternKey("compact.k0");
  store.Pin(survivor);
  store.Clear();
  // Clear keeps interned live slots (values wiped) and trims the trailing
  // dead slots entirely.
  EXPECT_EQ(store.key_count(), 4u);
  EXPECT_TRUE(store.IsLive(survivor));
  EXPECT_FALSE(store.Contains("compact.k0"));  // value gone, key interned
  EXPECT_EQ(store.KeyName(survivor), "compact.k0");
  // The trimmed tail's free-list entries are gone too: the next intern grows
  // the table instead of handing out a trimmed id.
  const KeyId fresh = store.InternKey("compact.new");
  EXPECT_EQ(fresh, 4u);
}

TEST(StoreLifecycleTest, DumpRestoreRoundTripsGenerationsAndFreeList) {
  FeatureStore store;
  for (int i = 0; i < 6; ++i) {
    store.Save("rt.k" + std::to_string(i), Value(int64_t{i}));
  }
  ASSERT_TRUE(store.ReclaimKey("rt.k1").ok());
  ASSERT_TRUE(store.ReclaimKey("rt.k3").ok());
  // Recycle one slot so a non-zero generation is in the dump.
  const KeyId recycled = store.InternKey("rt.tenant2");
  EXPECT_EQ(store.KeyName(recycled), "rt.tenant2");
  ASSERT_TRUE(store.ReclaimKey("rt.k5").ok());
  const auto dump = store.DumpSlots();

  FeatureStore other;
  other.RestoreSlots(dump);
  ASSERT_EQ(other.key_count(), store.key_count());
  for (KeyId id = 0; id < store.key_count(); ++id) {
    EXPECT_EQ(other.IsLive(id), store.IsLive(id)) << "slot " << id;
    EXPECT_EQ(other.GenerationOf(id), store.GenerationOf(id)) << "slot " << id;
    if (store.IsLive(id)) {
      EXPECT_EQ(other.KeyName(id), store.KeyName(id)) << "slot " << id;
    }
  }
  // Free-list order round-trips: both stores recycle the same slot next.
  EXPECT_EQ(other.InternKey("rt.next"), store.InternKey("rt.next"));
  EXPECT_EQ(other.approx_bytes(), store.approx_bytes());
}

}  // namespace
}  // namespace osguard
