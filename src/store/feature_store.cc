#include "src/store/feature_store.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/support/stats.h"

namespace osguard {

std::string_view AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "COUNT";
    case AggKind::kSum:
      return "SUM";
    case AggKind::kMean:
      return "MEAN";
    case AggKind::kMin:
      return "MIN";
    case AggKind::kMax:
      return "MAX";
    case AggKind::kStdDev:
      return "STDDEV";
    case AggKind::kRate:
      return "RATE";
    case AggKind::kNewest:
      return "NEWEST";
    case AggKind::kOldest:
      return "OLDEST";
  }
  return "?";
}

// --- Ownership ---

namespace {

// Each thread has its own instance, so its address names the thread: the
// owner check is one address compare, with no system call.
thread_local char this_thread_token;

[[noreturn, gnu::cold, gnu::noinline]] void AbortNotOwner() {
  std::fputs(
      "osguard: FeatureStore used from a thread that did not construct it; one "
      "thread drives a Kernel (or an Engine and the store it borrows) and "
      "everything they own\n",
      stderr);
  std::abort();
}

}  // namespace

FeatureStore::FeatureStore() : owner_(&this_thread_token) {}

void FeatureStore::CheckOwner() const {
  if (owner_ != &this_thread_token) [[unlikely]] {
    AbortNotOwner();
  }
}

void FeatureStore::SetObserver(StoreObserver observer) {
  CheckOwner();
  observer_ = std::move(observer);
}

void FeatureStore::Notify(StoreMutation& m, const std::string& key) const {
  if (!observer_) {
    return;
  }
  const Slot& slot = slots_[m.id];
  m.generation = slot.generation;
  m.approx_bytes = slot.bytes;
  m.pinned = slot.pinned;
  observer_(m, key);
}

// --- Slot table ---

FeatureStore::Slot& FeatureStore::SlotTable::emplace_back() {
  if (size_ == chunks_.size() << kChunkShift) {
    chunks_.push_back(std::make_unique<Chunk>());
  }
  return (*this)[static_cast<KeyId>(size_++)];
}

void FeatureStore::SlotTable::pop_back() {
  back() = Slot();
  --size_;
  if ((size_ & kChunkMask) == 0) {
    chunks_.pop_back();
  }
}

void FeatureStore::SlotTable::resize(size_t n) {
  while (size_ < n) {
    emplace_back();
  }
}

void FeatureStore::SlotTable::clear() {
  chunks_.clear();
  size_ = 0;
}

// --- Interning ---

KeyId FeatureStore::InternKey(std::string_view key) {
  CheckOwner();
  auto it = index_.find(key);
  if (it != index_.end()) {
    return it->second;
  }
  KeyId id;
  if (!free_slots_.empty()) {
    // Recycle the most recently freed slot. Its generation was bumped at
    // reclaim time, so any tag captured for the previous tenant mismatches.
    id = free_slots_.back();
    free_slots_.pop_back();
    Slot& slot = slots_[id];
    slot.key = std::string(key);
    slot.live = true;
    RefreshBytes(slot);
  } else {
    id = static_cast<KeyId>(slots_.size());
    Slot& slot = slots_.emplace_back();
    slot.key = std::string(key);
    RefreshBytes(slot);
  }
  index_.emplace(slots_[id].key, id);
  return id;
}

// --- Byte accounting ---
//
// Approximate by design: the goal is a pressure signal with stable ordering
// (more keys / more samples => more bytes), not a malloc-accurate census.
// Deterministic across hosts: the slot and series headers are fixed prices
// (kSlotHeaderBytes, kSeriesHeaderBytes), and samples and extrema are priced
// at the wire-stable dump structs, never at std::deque block geometry or the
// size of an in-memory struct.

uint64_t FeatureStore::SlotBytes(const Slot& slot) {
  uint64_t bytes = kSlotHeaderBytes + slot.key.size();
  if (slot.has_scalar) {
    if (const std::string* s = slot.scalar.IfString()) {
      bytes += s->size();
    }
  }
  if (slot.series != nullptr) {
    const Series& s = *slot.series;
    bytes += kSeriesHeaderBytes;
    bytes += s.samples.size() * sizeof(StoreSampleDump);
    bytes += (s.minima.size() + s.maxima.size()) * sizeof(StoreExtremumDump);
  }
  return bytes;
}

void FeatureStore::RefreshBytes(Slot& slot) {
  const uint64_t now_bytes = SlotBytes(slot);
  approx_bytes_ += now_bytes - slot.bytes;
  slot.bytes = now_bytes;
}

KeyId FeatureStore::FindKey(std::string_view key) const {
  CheckOwner();
  auto it = index_.find(key);
  return it == index_.end() ? kInvalidKeyId : it->second;
}

size_t FeatureStore::key_count() const {
  CheckOwner();
  return slots_.size();
}

size_t FeatureStore::live_key_count() const {
  CheckOwner();
  return slots_.size() - free_slots_.size();
}

const std::string& FeatureStore::KeyName(KeyId id) const {
  CheckOwner();
  return slots_[id].key;
}

// --- Key lifecycle ---

void FeatureStore::Pin(KeyId id) {
  CheckOwner();
  if (id < slots_.size()) {
    slots_[id].pinned = true;
  }
}

void FeatureStore::Unpin(KeyId id) {
  CheckOwner();
  if (id < slots_.size()) {
    slots_[id].pinned = false;
  }
}

bool FeatureStore::IsPinned(KeyId id) const {
  CheckOwner();
  return id < slots_.size() && slots_[id].pinned;
}

uint32_t FeatureStore::GenerationOf(KeyId id) const {
  CheckOwner();
  return id < slots_.size() ? slots_[id].generation : 0;
}

bool FeatureStore::IsLive(KeyId id) const {
  CheckOwner();
  return id < slots_.size() && slots_[id].live;
}

Status FeatureStore::ReclaimKey(std::string_view key) {
  const KeyId id = FindKey(key);
  if (id == kInvalidKeyId) {
    return NotFoundError("feature store has no key '" + std::string(key) + "'");
  }
  return ReclaimKeyId(id);
}

Status FeatureStore::ReclaimKeyId(KeyId id) {
  CheckOwner();
  if (id >= slots_.size() || !slots_[id].live) {
    return NotFoundError("feature store has no live slot " + std::to_string(id));
  }
  Slot& slot = slots_[id];
  if (slot.pinned) {
    return FailedPreconditionError("key '" + slot.key + "' is pinned and cannot be reclaimed");
  }
  index_.erase(slot.key);
  // Drop the tenant name too: a dead slot must account (and dump) exactly
  // like a restored dead slot, or byte telemetry diverges across restarts.
  const std::string name = std::move(slot.key);
  slot.key.clear();
  slot.has_scalar = false;
  slot.scalar = Value();
  slot.series.reset();
  slot.live = false;
  ++slot.generation;
  free_slots_.push_back(id);
  RefreshBytes(slot);
  StoreMutation m;
  m.kind = StoreMutation::Kind::kErase;
  m.id = id;
  m.reclaim = true;
  Notify(m, name);
  return OkStatus();
}

bool FeatureStore::TagIsCurrent(KeyId id, uint32_t gen) const {
  if (id >= slots_.size()) {
    return false;
  }
  if (slots_[id].generation != gen) {
    ++stale_hits_;
    return false;
  }
  return slots_[id].live;
}

Value FeatureStore::LoadOrTagged(KeyId id, uint32_t gen, Value fallback) const {
  CheckOwner();
  if (!TagIsCurrent(id, gen)) {
    return fallback;
  }
  return LoadOr(id, std::move(fallback));
}

bool FeatureStore::ContainsTagged(KeyId id, uint32_t gen) const {
  CheckOwner();
  return TagIsCurrent(id, gen) && Contains(id);
}

Result<double> FeatureStore::AggregateTagged(KeyId id, uint32_t gen, AggKind kind,
                                             Duration window, SimTime now) const {
  CheckOwner();
  if (!TagIsCurrent(id, gen)) {
    return NotFoundError("stale or reclaimed slot " + std::to_string(id));
  }
  return Aggregate(id, kind, window, now);
}

uint64_t FeatureStore::stale_hits() const {
  CheckOwner();
  return stale_hits_;
}

uint64_t FeatureStore::approx_bytes() const {
  CheckOwner();
  return approx_bytes_;
}

uint64_t FeatureStore::SlotApproxBytes(KeyId id) const {
  CheckOwner();
  return id < slots_.size() ? slots_[id].bytes : 0;
}

// --- Scalars ---

// A committed Save or Increment is a kSave of the slot's new scalar
// (Increment's post-increment value, so replay needs no read-modify-write).
void FeatureStore::NotifySave(KeyId id) const {
  StoreMutation m;
  m.kind = StoreMutation::Kind::kSave;
  m.id = id;
  m.value = &slots_[id].scalar;
  Notify(m, slots_[id].key);
}

void FeatureStore::Save(std::string_view key, Value value) {
  Save(InternKey(key), std::move(value));
}

void FeatureStore::Save(KeyId id, Value value) {
  CheckOwner();
  Slot& slot = slots_[id];
  if (!slot.live) {
    return;  // a stale cached id cannot resurrect a reclaimed slot
  }
  slot.scalar = std::move(value);
  slot.has_scalar = true;
  RefreshBytes(slot);
  NotifySave(id);
}

Result<Value> FeatureStore::Load(std::string_view key) const {
  const KeyId id = FindKey(key);
  if (id == kInvalidKeyId || !slots_[id].has_scalar) {
    return NotFoundError("feature store has no key '" + std::string(key) + "'");
  }
  return slots_[id].scalar;
}

Result<Value> FeatureStore::Load(KeyId id) const {
  CheckOwner();
  if (id >= slots_.size() || !slots_[id].has_scalar) {
    return NotFoundError("feature store has no slot " + std::to_string(id));
  }
  return slots_[id].scalar;
}

Value FeatureStore::LoadOr(std::string_view key, Value fallback) const {
  return LoadOr(FindKey(key), std::move(fallback));
}

Value FeatureStore::LoadOr(KeyId id, Value fallback) const {
  CheckOwner();
  if (id >= slots_.size() || !slots_[id].has_scalar) {
    return fallback;
  }
  return slots_[id].scalar;
}

bool FeatureStore::Contains(std::string_view key) const {
  return Contains(FindKey(key));
}

bool FeatureStore::Contains(KeyId id) const {
  CheckOwner();
  return id < slots_.size() && slots_[id].has_scalar;
}

Status FeatureStore::Erase(std::string_view key) {
  const KeyId id = FindKey(key);
  if (id == kInvalidKeyId || !slots_[id].has_scalar) {
    return NotFoundError("feature store has no key '" + std::string(key) + "'");
  }
  slots_[id].has_scalar = false;
  slots_[id].scalar = Value();
  RefreshBytes(slots_[id]);
  StoreMutation m;
  m.kind = StoreMutation::Kind::kErase;
  m.id = id;
  Notify(m, slots_[id].key);
  return OkStatus();
}

double FeatureStore::Increment(std::string_view key, double delta) {
  return Increment(InternKey(key), delta);
}

double FeatureStore::Increment(KeyId id, double delta) {
  CheckOwner();
  Slot& slot = slots_[id];
  if (!slot.live) {
    return 0.0;  // stale cached id: no resurrection, no observer
  }
  double next = delta;
  if (slot.has_scalar) {
    next += slot.scalar.NumericOr(0.0);
  }
  slot.scalar = Value(next);
  slot.has_scalar = true;
  RefreshBytes(slot);
  NotifySave(id);
  return next;
}

// --- Time series ---

void FeatureStore::Append(Series& series, SimTime t, double sample) {
  if (!series.samples.empty() && t < series.samples.back().time) {
    t = series.samples.back().time;  // clamp out-of-order samples
  }
  double cum_sum = sample;
  double cum_sumsq = sample * sample;
  if (!series.samples.empty()) {
    cum_sum += series.samples.back().cum_sum;
    cum_sumsq += series.samples.back().cum_sumsq;
  }
  const uint64_t seq = series.next_seq++;
  series.samples.push_back(Sample{t, sample, cum_sum, cum_sumsq, seq});
  // Maintain the monotonic extrema deques (amortized O(1)): a new sample
  // invalidates every older candidate that it dominates.
  while (!series.minima.empty() && series.minima.back().value >= sample) {
    series.minima.pop_back();
  }
  series.minima.push_back(Extremum{seq, t, sample});
  while (!series.maxima.empty() && series.maxima.back().value <= sample) {
    series.maxima.pop_back();
  }
  series.maxima.push_back(Extremum{seq, t, sample});
  Evict(series, t);
}

void FeatureStore::Evict(Series& series, SimTime now) {
  const SimTime cutoff = now - series.options.max_age;
  auto pop_front = [&series] {
    const uint64_t seq = series.samples.front().seq;
    if (!series.minima.empty() && series.minima.front().seq == seq) {
      series.minima.pop_front();
    }
    if (!series.maxima.empty() && series.maxima.front().seq == seq) {
      series.maxima.pop_front();
    }
    series.samples.pop_front();
  };
  while (!series.samples.empty() && series.samples.front().time < cutoff) {
    pop_front();
  }
  while (series.samples.size() > series.options.max_samples) {
    pop_front();
  }
  // Rebase point: with no retained samples the prefix accumulators restart
  // from zero on the next append (bounds floating-point drift).
}

void FeatureStore::Observe(std::string_view key, SimTime now, double sample) {
  Observe(InternKey(key), now, sample);
}

void FeatureStore::Observe(KeyId id, SimTime now, double sample) {
  CheckOwner();
  Slot& slot = slots_[id];
  if (!slot.live) {
    return;  // stale cached id: no resurrection, no observer
  }
  if (slot.series == nullptr) {
    slot.series = std::make_unique<Series>();
  }
  Append(*slot.series, now, sample);
  RefreshBytes(slot);
  StoreMutation m;
  m.kind = StoreMutation::Kind::kObserve;
  m.id = id;
  m.time = now;
  m.sample = sample;
  Notify(m, slot.key);
}

void FeatureStore::SetSeriesOptions(std::string_view key, SeriesOptions options) {
  const KeyId id = InternKey(key);
  Slot& slot = slots_[id];
  if (slot.series == nullptr) {
    slot.series = std::make_unique<Series>();
  }
  Series& series = *slot.series;
  series.options = options;
  if (!series.samples.empty()) {
    Evict(series, series.samples.back().time);
  }
  RefreshBytes(slot);
  StoreMutation m;
  m.kind = StoreMutation::Kind::kSetSeriesOptions;
  m.id = id;
  m.options = options;
  Notify(m, slot.key);
}

namespace {

struct WindowRange {
  size_t lo = 0;
  size_t hi = 0;  // inclusive
  bool empty = true;
};

// First index in [from, to) whose sample is after `t`, or `to`; times are
// non-decreasing.
template <typename Deque>
size_t UpperBound(const Deque& samples, size_t from, size_t to, SimTime t) {
  const auto begin = samples.begin();
  const auto it = std::upper_bound(begin + static_cast<ptrdiff_t>(from),
                                   begin + static_cast<ptrdiff_t>(to), t,
                                   [](SimTime x, const auto& s) { return x < s.time; });
  return static_cast<size_t>(it - begin);
}

// First index at or after `from` whose sample is after `cutoff`, when every
// sample before `from` is at or before it. Probes from+0, +1, +3, +7, ...
// and bisects the last gap: O(log d) for an answer d samples past `from`.
template <typename Deque>
size_t GallopPast(const Deque& samples, size_t from, SimTime cutoff) {
  const size_t n = samples.size();
  size_t lo = from;  // every index before lo is at or before the cutoff
  size_t probe = from;
  size_t step = 1;
  while (probe < n && samples[probe].time <= cutoff) {
    lo = probe + 1;
    probe += step;
    step *= 2;
  }
  return UpperBound(samples, lo, std::min(probe, n), cutoff);
}

// Deque indices covered by (cutoff, now]. The upper end is the newest sample
// unless that is after `now`, which only a query in the past sees; then it
// is a bisection. The lower end gallops forward from the series' remembered
// start when the cutoff did not move back since the last query, and bisects
// otherwise; either way the query becomes the remembered start.
template <typename Series>
WindowRange FindWindow(const Series& series, SimTime cutoff, SimTime now) {
  WindowRange r;
  const auto& samples = series.samples;
  if (samples.empty()) {
    return r;
  }
  const size_t n = samples.size();
  const uint64_t front_seq = samples.front().seq;
  size_t lo;
  if (cutoff >= series.start_cutoff) {
    const uint64_t from = series.start_seq > front_seq ? series.start_seq - front_seq : 0;
    lo = GallopPast(samples, std::min<uint64_t>(from, n), cutoff);
  } else {
    lo = UpperBound(samples, 0, n, cutoff);
  }
  series.start_cutoff = cutoff;
  series.start_seq = front_seq + lo;
  const size_t hi_end = samples.back().time <= now ? n : UpperBound(samples, 0, n, now);
  if (lo == n || lo == hi_end) {
    return r;
  }
  r.lo = lo;
  r.hi = hi_end - 1;
  r.empty = false;
  return r;
}

}  // namespace

Result<double> FeatureStore::Aggregate(KeyId id, AggKind kind, Duration window,
                                       SimTime now) const {
  CheckOwner();
  const bool empty_ok =
      kind == AggKind::kCount || kind == AggKind::kSum || kind == AggKind::kRate;
  const Series* series = id < slots_.size() ? slots_[id].series.get() : nullptr;
  if (series == nullptr) {
    if (empty_ok) {
      return 0.0;
    }
    return NotFoundError("no time series for key '" +
                         (id < slots_.size() ? slots_[id].key : std::to_string(id)) + "'");
  }
  const SimTime cutoff = now - window;
  const WindowRange r = FindWindow(*series, cutoff, now);
  if (r.empty) {
    if (empty_ok) {
      return 0.0;
    }
    return NotFoundError("window for key '" + slots_[id].key + "' is empty");
  }
  const Sample& first = series->samples[r.lo];
  const Sample& last = series->samples[r.hi];
  const double count = static_cast<double>(last.seq - first.seq + 1);
  switch (kind) {
    case AggKind::kCount:
      return count;
    case AggKind::kSum:
      return last.cum_sum - (first.cum_sum - first.value);
    case AggKind::kMean:
      return (last.cum_sum - (first.cum_sum - first.value)) / count;
    case AggKind::kMin:
    case AggKind::kMax: {
      const bool suffix = r.hi + 1 == series->samples.size();
      if (suffix) {
        const auto& candidates = kind == AggKind::kMin ? series->minima : series->maxima;
        // First candidate with seq >= first.seq is the suffix extremum.
        auto it = std::lower_bound(candidates.begin(), candidates.end(), first.seq,
                                   [](const Extremum& e, uint64_t s) { return e.seq < s; });
        if (it != candidates.end()) {
          return it->value;
        }
        return InternalError("extrema deque out of sync");  // unreachable
      }
      // Query bounded away from the newest sample (now < back.time): rare —
      // the engine's clock is monotone — so a linear scan is acceptable.
      double extreme = series->samples[r.lo].value;
      for (size_t i = r.lo + 1; i <= r.hi; ++i) {
        const double v = series->samples[i].value;
        extreme = kind == AggKind::kMin ? std::min(extreme, v) : std::max(extreme, v);
      }
      return extreme;
    }
    case AggKind::kStdDev: {
      if (count < 2.0) {
        return 0.0;
      }
      const double sum = last.cum_sum - (first.cum_sum - first.value);
      const double sumsq = last.cum_sumsq - (first.cum_sumsq - first.value * first.value);
      const double mean = sum / count;
      // Clamp: prefix-difference cancellation can drive tiny windows
      // fractionally negative.
      const double var = std::max(0.0, (sumsq - sum * mean) / (count - 1.0));
      return std::sqrt(var);
    }
    case AggKind::kRate: {
      if (window <= 0) {
        return 0.0;
      }
      return count / ToSeconds(window);
    }
    case AggKind::kNewest:
      return last.value;
    case AggKind::kOldest:
      return first.value;
  }
  return InternalError("unknown aggregation kind");
}

Result<double> FeatureStore::Aggregate(std::string_view key, AggKind kind, Duration window,
                                       SimTime now) const {
  const KeyId id = FindKey(key);
  if (id == kInvalidKeyId) {
    if (kind == AggKind::kCount || kind == AggKind::kSum || kind == AggKind::kRate) {
      return 0.0;
    }
    return NotFoundError("no time series for key '" + std::string(key) + "'");
  }
  return Aggregate(id, kind, window, now);
}

Result<double> FeatureStore::AggregateQuantile(KeyId id, double q, Duration window,
                                               SimTime now) const {
  std::vector<double> samples = WindowSamples(id, window, now);
  if (samples.empty()) {
    return NotFoundError("window for slot " + std::to_string(id) + " is empty");
  }
  return ExactQuantile(std::move(samples), q);
}

Result<double> FeatureStore::AggregateQuantile(std::string_view key, double q, Duration window,
                                               SimTime now) const {
  std::vector<double> samples = WindowSamples(key, window, now);
  if (samples.empty()) {
    return NotFoundError("window for key '" + std::string(key) + "' is empty");
  }
  return ExactQuantile(std::move(samples), q);
}

std::vector<double> FeatureStore::WindowSamples(KeyId id, Duration window, SimTime now) const {
  CheckOwner();
  std::vector<double> out;
  const Series* series = id < slots_.size() ? slots_[id].series.get() : nullptr;
  if (series == nullptr) {
    return out;
  }
  const WindowRange r = FindWindow(*series, now - window, now);
  if (r.empty) {
    return out;
  }
  out.reserve(r.hi - r.lo + 1);
  for (size_t i = r.lo; i <= r.hi; ++i) {
    out.push_back(series->samples[i].value);
  }
  return out;
}

std::vector<double> FeatureStore::WindowSamples(std::string_view key, Duration window,
                                                SimTime now) const {
  return WindowSamples(FindKey(key), window, now);
}

// --- Introspection ---

size_t FeatureStore::scalar_count() const {
  CheckOwner();
  size_t count = 0;
  for (KeyId id = 0; id < slots_.size(); ++id) {
    count += slots_[id].has_scalar ? 1 : 0;
  }
  return count;
}

size_t FeatureStore::series_count() const {
  CheckOwner();
  size_t count = 0;
  for (KeyId id = 0; id < slots_.size(); ++id) {
    count += slots_[id].series != nullptr ? 1 : 0;
  }
  return count;
}

std::vector<std::string> FeatureStore::ScalarKeys() const {
  CheckOwner();
  std::vector<std::string> keys;
  keys.reserve(slots_.size());
  for (KeyId id = 0; id < slots_.size(); ++id) {
    if (slots_[id].has_scalar) {
      keys.push_back(slots_[id].key);
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

void FeatureStore::Clear() {
  CheckOwner();
  for (KeyId id = 0; id < slots_.size(); ++id) {
    Slot& slot = slots_[id];
    slot.has_scalar = false;
    slot.scalar = Value();
    slot.series.reset();
    if (!slot.live) {
      // Compaction: a dead slot no longer needs its retained key string.
      slot.key.clear();
      slot.key.shrink_to_fit();
    }
    RefreshBytes(slot);
  }
  // Trim trailing dead slots. Live ids never move, so every id a monitor
  // has cached (all of which point at live, pinned slots) stays valid.
  while (!slots_.empty() && !slots_.back().live) {
    approx_bytes_ -= slots_.back().bytes;
    slots_.pop_back();
  }
  const size_t size = slots_.size();
  free_slots_.erase(std::remove_if(free_slots_.begin(), free_slots_.end(),
                                   [size](KeyId id) { return id >= size; }),
                    free_slots_.end());
}

void FeatureStore::Reset() {
  CheckOwner();
  slots_.clear();
  index_.clear();
  free_slots_.clear();
  approx_bytes_ = 0;
}

// --- Persistence ---

std::vector<StoreSlotDump> FeatureStore::DumpSlots() const {
  CheckOwner();
  std::vector<StoreSlotDump> dump;
  dump.reserve(slots_.size());
  for (KeyId id = 0; id < slots_.size(); ++id) {
    const Slot& slot = slots_[id];
    StoreSlotDump d;
    d.key = slot.key;
    d.generation = slot.generation;
    d.live = slot.live;
    if (!slot.live) {
      auto it = std::find(free_slots_.begin(), free_slots_.end(), id);
      d.free_rank = it == free_slots_.end()
                        ? 0
                        : static_cast<uint32_t>(it - free_slots_.begin()) + 1;
    }
    d.has_scalar = slot.has_scalar;
    if (slot.has_scalar) {
      d.scalar = slot.scalar;
    }
    if (slot.series != nullptr) {
      d.has_series = true;
      const Series& s = *slot.series;
      d.series.max_samples = static_cast<uint64_t>(s.options.max_samples);
      d.series.max_age = s.options.max_age;
      d.series.next_seq = s.next_seq;
      d.series.samples.reserve(s.samples.size());
      for (const Sample& sample : s.samples) {
        d.series.samples.push_back(
            StoreSampleDump{sample.time, sample.value, sample.cum_sum, sample.cum_sumsq,
                            sample.seq});
      }
      d.series.minima.reserve(s.minima.size());
      for (const Extremum& e : s.minima) {
        d.series.minima.push_back(StoreExtremumDump{e.seq, e.time, e.value});
      }
      d.series.maxima.reserve(s.maxima.size());
      for (const Extremum& e : s.maxima) {
        d.series.maxima.push_back(StoreExtremumDump{e.seq, e.time, e.value});
      }
    }
    dump.push_back(std::move(d));
  }
  return dump;
}

void FeatureStore::RestoreSlots(const std::vector<StoreSlotDump>& dump) {
  CheckOwner();
  // Positional restore: dump index i describes slot i. This preserves the
  // generation map, so a monitor's (id, generation) tag minted before a
  // snapshot reads identically after warm restart.
  if (slots_.size() < dump.size()) {
    slots_.resize(dump.size());
  }
  std::vector<std::pair<uint32_t, KeyId>> freed;  // (free_rank, id)
  for (KeyId id = 0; id < dump.size(); ++id) {
    const StoreSlotDump& d = dump[id];
    Slot& slot = slots_[id];
    if (!d.live) {
      // Current pinned slots belong to the engine's post-restore topology;
      // a dead dump entry must not kill them.
      if (!slot.pinned) {
        if (slot.live && !slot.key.empty()) {
          index_.erase(slot.key);
        }
        slot.key.clear();
        slot.has_scalar = false;
        slot.scalar = Value();
        slot.series.reset();
        slot.live = false;
        slot.generation = d.generation;
        freed.emplace_back(d.free_rank, id);
      }
      RefreshBytes(slot);
      continue;
    }
    if (slot.live && slot.key != d.key && !slot.key.empty()) {
      index_.erase(slot.key);
    }
    slot.key = d.key;
    slot.live = true;
    slot.generation = d.generation;
    index_[slot.key] = id;
    slot.has_scalar = d.has_scalar;
    slot.scalar = d.has_scalar ? d.scalar : Value();
    if (!d.has_series) {
      slot.series.reset();
      RefreshBytes(slot);
      continue;
    }
    slot.series = std::make_unique<Series>();
    Series& s = *slot.series;
    s.options.max_samples = static_cast<size_t>(d.series.max_samples);
    s.options.max_age = d.series.max_age;
    s.next_seq = d.series.next_seq;
    for (const StoreSampleDump& sample : d.series.samples) {
      s.samples.push_back(
          Sample{sample.time, sample.value, sample.cum_sum, sample.cum_sumsq, sample.seq});
    }
    for (const StoreExtremumDump& e : d.series.minima) {
      s.minima.push_back(Extremum{e.seq, e.time, e.value});
    }
    for (const StoreExtremumDump& e : d.series.maxima) {
      s.maxima.push_back(Extremum{e.seq, e.time, e.value});
    }
    RefreshBytes(slot);
  }
  // Rebuild the free list in dump order so recycling after restart picks the
  // same slots in the same order as the pre-crash store would have.
  std::sort(freed.begin(), freed.end());
  free_slots_.clear();
  for (const auto& [rank, id] : freed) {
    (void)rank;
    free_slots_.push_back(id);
  }
}

}  // namespace osguard
