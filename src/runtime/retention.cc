#include "src/runtime/retention.h"

#include <algorithm>

#include "src/support/logging.h"

namespace osguard {

namespace {
constexpr Duration kBuiltinAgentSessionTtl = Seconds(120);
constexpr Duration kBuiltinMonitorCounterTtl = Seconds(600);
}  // namespace

RetentionOptions WithBuiltinNamespaces(RetentionOptions options) {
  if (!options.enabled) {
    return options;
  }
  auto governs = [&options](std::string_view prefix) {
    for (const RetentionNamespaceOptions& ns : options.namespaces) {
      if (ns.prefix == prefix) {
        return true;
      }
    }
    return false;
  };
  // Per-session agent keys ("agent.s<sid>.*"). The agent globals that share
  // the prefix (agent.sessions, agent.seen_sessions) are pinned by their
  // owners, so the namespace only ever reclaims true session state.
  if (!governs("agent.s")) {
    RetentionNamespaceOptions ns;
    ns.prefix = "agent.s";
    ns.idle_ttl = kBuiltinAgentSessionTtl;
    options.namespaces.push_back(std::move(ns));
  }
  // Per-monitor uptime counters ("monitor.<name>.*") left behind by
  // unloaded monitors. Live monitors pin their counter ids, so only
  // orphaned counters age out.
  if (!governs("monitor.")) {
    RetentionNamespaceOptions ns;
    ns.prefix = "monitor.";
    ns.idle_ttl = kBuiltinMonitorCounterTtl;
    options.namespaces.push_back(std::move(ns));
  }
  return options;
}

void RetentionManager::Configure(const RetentionOptions& options, FeatureStore* store) {
  options_ = options;
  options_.scan_chunk = std::max<uint64_t>(options_.scan_chunk, 1);
  store_ = store;
  const size_t n = options_.namespaces.size();
  tracked_.clear();
  write_order_.assign(n, {});
  ns_keys_.assign(n, 0);
  ns_bytes_.assign(n, 0);
  cursor_ = 0;
  k_ns_keys_.assign(n, kInvalidKeyId);
  k_ns_bytes_.assign(n, kInvalidKeyId);
  pub_ns_.assign(n, {});
  keys_published_ = false;
  pub_reclaimed_ = pub_evictions_ = pub_breaches_ = 0;
  pub_bytes_total_ = pub_live_keys_ = 0;
  if (options_.enabled && store_ != nullptr) {
    k_reclaimed_ = store_->InternKey("store.retention.reclaimed");
    k_evictions_ = store_->InternKey("store.retention.evictions");
    k_breaches_ = store_->InternKey("store.retention.breaches");
    k_bytes_total_ = store_->InternKey("engine.store.bytes.total");
    k_live_keys_ = store_->InternKey("engine.store.keys.live");
    store_->Pin(k_reclaimed_);
    store_->Pin(k_evictions_);
    store_->Pin(k_breaches_);
    store_->Pin(k_bytes_total_);
    store_->Pin(k_live_keys_);
    for (size_t i = 0; i < n; ++i) {
      k_ns_keys_[i] = store_->InternKey("engine.store.keys." + options_.namespaces[i].prefix);
      k_ns_bytes_[i] = store_->InternKey("engine.store.bytes." + options_.namespaces[i].prefix);
      store_->Pin(k_ns_keys_[i]);
      store_->Pin(k_ns_bytes_[i]);
    }
  }
  if (chaos_ != nullptr && options_.enabled) {
    storm_site_ = chaos_->RegisterSite(kChaosSiteStoreEvictStorm);
    breach_site_ = chaos_->RegisterSite(kChaosSiteStoreQuotaBreach);
  }
}

void RetentionManager::AttachChaos(ChaosEngine* chaos) {
  chaos_ = chaos;
  if (chaos_ != nullptr && options_.enabled) {
    storm_site_ = chaos_->RegisterSite(kChaosSiteStoreEvictStorm);
    breach_site_ = chaos_->RegisterSite(kChaosSiteStoreQuotaBreach);
  } else {
    storm_site_ = kInvalidChaosSite;
    breach_site_ = kInvalidChaosSite;
  }
}

int32_t RetentionManager::Classify(std::string_view key) const {
  // Longest-prefix match so "agent.s" and a more specific "agent.s42." can
  // coexist with the expected precedence.
  int32_t best = -1;
  size_t best_len = 0;
  for (size_t i = 0; i < options_.namespaces.size(); ++i) {
    const std::string& prefix = options_.namespaces[i].prefix;
    if (key.size() >= prefix.size() && prefix.size() >= best_len &&
        key.compare(0, prefix.size(), prefix) == 0) {
      best = static_cast<int32_t>(i);
      best_len = prefix.size();
    }
  }
  return best;
}

void RetentionManager::LinkNewest(KeyId id, Tracked& t) {
  WriteOrder& order = write_order_[t.ns];
  t.older = order.newest;
  t.newer = kInvalidKeyId;
  if (order.newest != kInvalidKeyId) {
    tracked_[order.newest].newer = id;
  } else {
    order.oldest = id;
  }
  order.newest = id;
}

void RetentionManager::Unlink(Tracked& t) {
  WriteOrder& order = write_order_[t.ns];
  if (t.older != kInvalidKeyId) {
    tracked_[t.older].newer = t.newer;
  } else {
    order.oldest = t.newer;
  }
  if (t.newer != kInvalidKeyId) {
    tracked_[t.newer].older = t.older;
  } else {
    order.newest = t.older;
  }
  t.older = t.newer = kInvalidKeyId;
}

bool RetentionManager::AnyIdle(SimTime now) const {
  for (size_t i = 0; i < write_order_.size(); ++i) {
    const Duration ttl = options_.namespaces[i].idle_ttl;
    const KeyId oldest = write_order_[i].oldest;
    if (ttl > 0 && oldest != kInvalidKeyId && now - tracked_[oldest].last_write >= ttl) {
      return true;
    }
  }
  return false;
}

void RetentionManager::Untrack(KeyId id, Tracked& t) {
  (void)id;
  if (t.valid && t.ns >= 0) {
    ns_keys_[t.ns] -= 1;
    ns_bytes_[t.ns] -= t.bytes;
    Unlink(t);
  }
  t.valid = false;
  t.ns = -1;
  t.bytes = 0;
}

void RetentionManager::OnWrite(const StoreMutation& write, const std::string& key,
                               SimTime now) {
  if (!options_.enabled) {
    return;
  }
  if (write.id >= tracked_.size()) {
    tracked_.resize(write.id + 1);
  }
  Tracked& t = tracked_[write.id];
  if (write.pinned) {
    // Pinned keys are lifecycle-exempt; drop any tracking acquired before
    // the owner pinned the id.
    if (t.valid) {
      Untrack(write.id, t);
    }
    return;
  }
  if (!t.valid || t.generation != write.generation) {
    // New tenant (first write, or the slot was reclaimed and recycled).
    if (t.valid) {
      Untrack(write.id, t);
    }
    const int32_t ns = Classify(key);
    t.generation = write.generation;
    if (ns < 0) {
      t.valid = false;
      t.ns = -1;
      t.bytes = 0;
      t.last_write = now;
      return;
    }
    t.valid = true;
    t.ns = ns;
    t.bytes = 0;
    ns_keys_[ns] += 1;
    LinkNewest(write.id, t);
  } else if (write_order_[t.ns].newest != write.id) {
    Unlink(t);
    LinkNewest(write.id, t);
  }
  t.last_write = now;
  ns_bytes_[t.ns] += write.approx_bytes - t.bytes;
  t.bytes = write.approx_bytes;
}

bool RetentionManager::TryReclaim(KeyId id, Tracked& t, bool quota) {
  const Status status = store_->ReclaimKeyId(id);
  if (status.ok()) {
    Untrack(id, t);
    if (quota) {
      ++stats_.reclaimed_quota;
    } else {
      ++stats_.reclaimed_idle;
    }
    return true;
  }
  // Pinned (FailedPrecondition) or already dead (NotFound): either way this
  // slot is not ours to govern right now — untrack so counts converge.
  if (status.code() == ErrorCode::kNotFound) {
    ++stats_.stale_tracks_fixed;
  }
  Untrack(id, t);
  return false;
}

void RetentionManager::ScanChunk(SimTime now, bool storm) {
  if (tracked_.empty()) {
    return;
  }
  if (!storm && !AnyIdle(now)) {
    // The walk below would reclaim nothing; leave the cursor where its
    // scan_chunk steps would have: one past the last slot visited.
    const uint64_t size = tracked_.size();
    const uint64_t start = cursor_ >= size ? 0 : cursor_;
    cursor_ = (start + (options_.scan_chunk - 1) % size) % size + 1;
    return;
  }
  const uint64_t budget = storm ? tracked_.size() : options_.scan_chunk;
  for (uint64_t step = 0; step < budget; ++step) {
    if (cursor_ >= tracked_.size()) {
      cursor_ = 0;
    }
    const KeyId id = static_cast<KeyId>(cursor_++);
    Tracked& t = tracked_[id];
    if (!t.valid || t.ns < 0) {
      continue;
    }
    const Duration ttl = options_.namespaces[t.ns].idle_ttl;
    if (storm) {
      TryReclaim(id, t, /*quota=*/false);
    } else if (ttl > 0 && now - t.last_write >= ttl) {
      TryReclaim(id, t, /*quota=*/false);
    }
  }
}

void RetentionManager::EnforceQuota(SimTime now, bool breach_all) {
  (void)now;
  for (size_t i = 0; i < options_.namespaces.size(); ++i) {
    const uint64_t configured = options_.namespaces[i].max_keys;
    uint64_t budget = configured;
    if (breach_all) {
      // Injected breach: pretend the namespace budget collapsed to half its
      // live population, forcing LRU eviction pressure deterministically.
      budget = ns_keys_[i] / 2;
    } else if (configured == 0 || ns_keys_[i] <= configured) {
      continue;
    }
    // Census over the namespace's tracked slots. A slot only counts against
    // the budget if it still holds the tenant we stamped: externally
    // reclaimed or recycled slots would inflate the census and evict
    // healthy keys, so they are untracked here (and the count with them).
    std::vector<KeyId> live;
    live.reserve(ns_keys_[i]);
    for (KeyId id = write_order_[i].oldest; id != kInvalidKeyId;) {
      Tracked& t = tracked_[id];
      const KeyId newer = t.newer;
      if (!store_->IsLive(id) || store_->GenerationOf(id) != t.generation) {
        ++stats_.stale_tracks_fixed;
        Untrack(id, t);
      } else if (store_->IsPinned(id)) {
        Untrack(id, t);  // pinned after tracking: now exempt
      } else {
        live.push_back(id);
      }
      id = newer;
    }
    if (budget >= live.size() || live.empty()) {
      continue;
    }
    ++stats_.quota_breaches;
    // LRU by last write, stable tie-break on slot id.
    std::sort(live.begin(), live.end(), [this](KeyId a, KeyId b) {
      if (tracked_[a].last_write != tracked_[b].last_write) {
        return tracked_[a].last_write < tracked_[b].last_write;
      }
      return a < b;
    });
    const uint64_t excess = live.size() - budget;
    uint64_t evicted = 0;
    for (const KeyId id : live) {
      if (evicted >= excess) {
        break;
      }
      if (TryReclaim(id, tracked_[id], /*quota=*/true)) {
        ++evicted;
      }
    }
    if (evicted > 0) {
      OSGUARD_LOG(kDebug) << "retention evicted " << evicted << " keys from '"
                          << options_.namespaces[i].prefix << "'";
    }
  }
}

void RetentionManager::RunAtBoundary(SimTime now) {
  if (!options_.enabled || store_ == nullptr) {
    return;
  }
  bool storm = false;
  bool breach = false;
  if (chaos_ != nullptr) {
    if (storm_site_ != kInvalidChaosSite && chaos_->ShouldInject(storm_site_, now)) {
      storm = true;
      ++stats_.chaos_storms;
    }
    if (breach_site_ != kInvalidChaosSite && chaos_->ShouldInject(breach_site_, now)) {
      breach = true;
      ++stats_.chaos_breaches;
    }
  }
  ScanChunk(now, storm);
  EnforceQuota(now, breach);
  Publish();
}

void RetentionManager::AdoptKey(KeyId id, SimTime now) {
  if (!options_.enabled || store_ == nullptr) {
    return;
  }
  if (id >= store_->key_count() || !store_->IsLive(id) || store_->IsPinned(id)) {
    return;
  }
  const int32_t ns = Classify(store_->KeyName(id));
  if (ns < 0) {
    return;
  }
  if (id >= tracked_.size()) {
    tracked_.resize(id + 1);
  }
  Tracked& t = tracked_[id];
  if (t.valid) {
    return;  // already governed
  }
  t.ns = ns;
  t.valid = true;
  t.generation = store_->GenerationOf(id);
  t.bytes = store_->SlotApproxBytes(id);
  t.last_write = now;
  ns_keys_[ns] += 1;
  ns_bytes_[ns] += t.bytes;
  LinkNewest(id, t);
}

bool RetentionManager::ReclaimTracked(KeyId id) {
  if (!options_.enabled || store_ == nullptr || id >= tracked_.size()) {
    return false;
  }
  Tracked& t = tracked_[id];
  if (!t.valid || t.ns < 0) {
    return false;
  }
  return TryReclaim(id, t, /*quota=*/false);
}

void RetentionManager::Publish() {
  if (store_ == nullptr || k_reclaimed_ == kInvalidKeyId) {
    return;
  }
  const uint64_t reclaimed = stats_.reclaimed_idle;
  if (!keys_published_ || reclaimed != pub_reclaimed_) {
    pub_reclaimed_ = reclaimed;
    store_->Save(k_reclaimed_, Value(static_cast<int64_t>(reclaimed)));
  }
  if (!keys_published_ || stats_.reclaimed_quota != pub_evictions_) {
    pub_evictions_ = stats_.reclaimed_quota;
    store_->Save(k_evictions_, Value(static_cast<int64_t>(stats_.reclaimed_quota)));
  }
  if (!keys_published_ || stats_.quota_breaches != pub_breaches_) {
    pub_breaches_ = stats_.quota_breaches;
    store_->Save(k_breaches_, Value(static_cast<int64_t>(stats_.quota_breaches)));
  }
  const uint64_t bytes_total = store_->approx_bytes();
  if (!keys_published_ || bytes_total != pub_bytes_total_) {
    pub_bytes_total_ = bytes_total;
    store_->Save(k_bytes_total_, Value(static_cast<int64_t>(bytes_total)));
  }
  const uint64_t live = store_->live_key_count();
  if (!keys_published_ || live != pub_live_keys_) {
    pub_live_keys_ = live;
    store_->Save(k_live_keys_, Value(static_cast<int64_t>(live)));
  }
  for (size_t i = 0; i < k_ns_keys_.size(); ++i) {
    if (!keys_published_ || ns_keys_[i] != pub_ns_[i].keys) {
      pub_ns_[i].keys = ns_keys_[i];
      store_->Save(k_ns_keys_[i], Value(static_cast<int64_t>(ns_keys_[i])));
    }
    if (!keys_published_ || ns_bytes_[i] != pub_ns_[i].bytes) {
      pub_ns_[i].bytes = ns_bytes_[i];
      store_->Save(k_ns_bytes_[i], Value(static_cast<int64_t>(ns_bytes_[i])));
    }
  }
  keys_published_ = true;
}

void RetentionManager::ResyncAfterRestore(SimTime now) {
  if (!options_.enabled || store_ == nullptr) {
    return;
  }
  const size_t n = options_.namespaces.size();
  write_order_.assign(n, {});
  ns_keys_.assign(n, 0);
  ns_bytes_.assign(n, 0);
  const size_t count = store_->key_count();
  tracked_.assign(count, Tracked{});
  for (KeyId id = 0; id < count; ++id) {
    if (!store_->IsLive(id) || store_->IsPinned(id)) {
      continue;
    }
    const int32_t ns = Classify(store_->KeyName(id));
    if (ns < 0) {
      continue;
    }
    Tracked& t = tracked_[id];
    t.ns = ns;
    t.valid = true;
    t.generation = store_->GenerationOf(id);
    t.bytes = store_->SlotApproxBytes(id);
    // Restore-time stamp: write times are not persisted, and both sides of
    // a differential restore identically, so this stays deterministic.
    t.last_write = now;
    LinkNewest(id, t);
    ns_keys_[ns] += 1;
    ns_bytes_[ns] += t.bytes;
  }
  if (cursor_ >= tracked_.size()) {
    cursor_ = 0;
  }
}

}  // namespace osguard
