// The global feature store (paper §4.3).
//
// Guardrails evaluate properties over system-wide metrics that are produced
// at many kernel sites and consumed at one monitor. The paper's answer is a
// lightweight global store accessed through SAVE(key, value) / LOAD(key).
// This implementation adds the windowed time-series substrate those rules
// need in practice: kernel sites call Observe(key, now, sample) and monitors
// query Aggregate("page_fault_lat", kMean, 10s window).
//
// Hot-path design (the P5 "decision overhead" budget):
//
//   * Keys are interned to dense slot ids (KeyId). The engine resolves every
//     compile-time-constant key to a slot at monitor load, so steady-state
//     helper calls are a shift and a mask into the slot table's fixed
//     chunks — no hashing, no std::string construction, no division. The
//     string API remains as the slow path for dynamic keys and does exactly
//     one (transparent, string_view) hash probe.
//   * Every series keeps incremental window state: per-sample running
//     sum/sum-of-squares prefixes and monotonic min/max deques, so a window
//     aggregate is two window ends + O(1) arithmetic instead of an O(n) scan;
//     Observe/evict maintenance is amortized O(1). The upper end is the
//     newest sample whenever that is not after `now` (always, at the engine's
//     monotone clock). The lower end gallops forward from the series' last
//     query when the cutoff did not move back, so a series queried with one
//     window pays amortized O(1); any other query bisects (O(log n)).
//
// Observation: the store has one observer (SetObserver), called once after
// every committed mutation with the mutation, the facts of its slot and the
// key. The engine built on the store installs it and is its only consumer:
// it journals the mutation, and for a write stamps retention and fires the
// ONCHANGE triggers watching the key.
//
// Threading: one thread drives a Kernel (or an Engine and the store it
// borrows) and everything they own, so the store takes no lock. The thread
// that constructs a store owns it, and any other thread that reads or writes
// it aborts the process, in every build. A kernel deployment would shard the
// store per CPU, as eBPF's per-CPU maps do, rather than lock it.

#ifndef SRC_STORE_FEATURE_STORE_H_
#define SRC_STORE_FEATURE_STORE_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/store/value.h"
#include "src/support/hash.h"
#include "src/support/status.h"
#include "src/support/time.h"

namespace osguard {

// Dense identifier for an interned feature-store key; indexes directly into
// the slot array. Ids are assigned in interning order. A *pinned* slot
// (Pin()) is stable for the lifetime of the store — Clear() resets values
// but keeps the intern table, so monitor-cached ids stay valid; the engine
// pins every id it caches at load time. Unpinned slots participate in the
// key lifecycle: ReclaimKey() frees the slot onto a free list, bumps its
// generation, and a later intern of a *different* key may recycle the slot.
// Consumers that cache ids of reclaimable keys must carry the generation
// (GenerationOf at resolve time) and read through the tagged accessors — a
// stale generation reads as absent, never as the recycled key's data.
using KeyId = uint32_t;
inline constexpr KeyId kInvalidKeyId = 0xffffffffu;

// Aggregations available over a time-series key. The DSL exposes these as
// MEAN(key, window), RATE(key, window), etc.
enum class AggKind {
  kCount,   // number of samples in the window
  kSum,     // sum of sample values
  kMean,    // arithmetic mean (0 when empty)
  kMin,
  kMax,
  kStdDev,  // sample standard deviation
  kRate,    // samples per second over the window span
  kNewest,  // most recent sample value
  kOldest,  // oldest retained sample within the window
};

std::string_view AggKindName(AggKind kind);

// Per-series retention limits. A series drops samples older than max_age and
// keeps at most max_samples; both bounds keep monitor memory bounded, which
// is a precondition for running in the kernel.
struct SeriesOptions {
  size_t max_samples = 65536;
  Duration max_age = Seconds(300);
};

// A committed store mutation and the facts of the slot it left behind, as
// the store's observer sees it. Which fields are meaningful depends on
// `kind`:
//   kSave             -> value, the committed scalar (Increment reports its
//                        post-increment scalar as a kSave, so a journal
//                        replay needs no read-modify-write). It points into
//                        the slot: copy it to keep it past the call.
//   kObserve          -> time, sample
//   kErase            -> key only; fired only when the erase succeeded.
//                        `reclaim` distinguishes a full slot reclamation
//                        (ReclaimKey: series dropped, slot freed) from a
//                        scalar erase, so journal replay reproduces the
//                        free-list and generation state bit-identically.
//   kSetSeriesOptions -> options
// The slot facts (generation, approx_bytes, pinned) are read from the
// committed slot for every kind, so the observer need not query the store
// again to dispatch ONCHANGE or stamp retention.
struct StoreMutation {
  enum class Kind : uint8_t { kSave = 0, kObserve = 1, kErase = 2, kSetSeriesOptions = 3 };
  Kind kind = Kind::kSave;
  KeyId id = kInvalidKeyId;
  uint32_t generation = 0;    // slot tenant generation after the mutation
  uint64_t approx_bytes = 0;  // slot's approximate footprint after the mutation
  bool pinned = false;        // lifecycle-exempt (cached-id contract)
  const Value* value = nullptr;
  SimTime time = 0;
  double sample = 0.0;
  SeriesOptions options;
  bool reclaim = false;

  // Save, Increment and Observe: the writes that ONCHANGE triggers and
  // retention's last-write stamps follow. Erases, reclamations and series
  // options are journaled only.
  bool is_write() const { return kind == Kind::kSave || kind == Kind::kObserve; }
};

// The store's one observer: invoked once per committed mutation, after it
// commits, so it may freely read and write the store. The engine installs
// it (Engine's constructor) to journal, stamp retention and fire ONCHANGE
// triggers (dependency-driven checking, the paper's §6 idea). The key
// reference stays valid for the lifetime of the store; for a reclamation it
// names the slot's last tenant.
using StoreObserver = std::function<void(const StoreMutation& m, const std::string& key)>;

// Full value dump of one slot — everything needed to reconstruct the slot
// bit-identically, including the series' incremental window state (prefix
// accumulators, monotonic extrema deques, per-series sequence counter).
// Produced by DumpSlots() in interning order; consumed by RestoreSlots()
// and by osguard::persist snapshots.
struct StoreSampleDump {
  SimTime time = 0;
  double value = 0.0;
  double cum_sum = 0.0;
  double cum_sumsq = 0.0;
  uint64_t seq = 0;
};
struct StoreExtremumDump {
  uint64_t seq = 0;
  SimTime time = 0;
  double value = 0.0;
};
struct StoreSeriesDump {
  std::vector<StoreSampleDump> samples;
  std::vector<StoreExtremumDump> minima;
  std::vector<StoreExtremumDump> maxima;
  uint64_t max_samples = 0;
  Duration max_age = 0;
  uint64_t next_seq = 0;
};
struct StoreSlotDump {
  std::string key;
  bool has_scalar = false;
  Value scalar;
  bool has_series = false;
  StoreSeriesDump series;
  // --- Generation map (key lifecycle) ---
  // Reclaimed slots are dumped too (live = false, values empty) so a warm
  // restart reconstructs the slot table positionally: generations, the
  // free-list membership, and its LIFO order (free_rank: 1-based position in
  // the free list, 0 for live slots) all survive bit-identically.
  uint32_t generation = 0;
  bool live = true;
  uint32_t free_rank = 0;
};

class FeatureStore {
 public:
  // The calling thread becomes the store's owner (see "Threading" above).
  FeatureStore();
  FeatureStore(const FeatureStore&) = delete;
  FeatureStore& operator=(const FeatureStore&) = delete;

  // Registers the store's one observer (nullptr to clear). The engine
  // built on the store owns it: its constructor installs it and its
  // destructor clears it.
  void SetObserver(StoreObserver observer);

  // --- Key interning ---

  // Returns the slot id for `key`, creating an empty slot if absent. A freed
  // slot may be recycled (LIFO) — the returned id then carries the bumped
  // generation that distinguishes it from the slot's previous tenant.
  KeyId InternKey(std::string_view key);

  // Returns the slot id for `key` or kInvalidKeyId if it was never interned
  // (or was reclaimed).
  KeyId FindKey(std::string_view key) const;

  // Slot-table size (live + freed slots); all valid KeyIds are < key_count().
  size_t key_count() const;

  // Number of live (not reclaimed) slots.
  size_t live_key_count() const;

  // The key string for a valid id (stable reference; a freed slot keeps its
  // last tenant's name until the slot is recycled or compacted).
  const std::string& KeyName(KeyId id) const;

  // --- Key lifecycle (bounded-memory store; docs/STORE.md) ---

  // Pins / unpins a slot. Pinned slots are never reclaimed — ReclaimKey
  // refuses with kFailedPrecondition — so cached KeyIds of pinned keys stay
  // valid forever. The engine pins every id it resolves at monitor load.
  void Pin(KeyId id);
  void Unpin(KeyId id);
  bool IsPinned(KeyId id) const;

  // Slot generation: bumped each time the slot is reclaimed. Capture it next
  // to a cached KeyId and read through the tagged accessors below.
  uint32_t GenerationOf(KeyId id) const;
  // Whether the slot is currently interned (not freed).
  bool IsLive(KeyId id) const;

  // Frees the slot: drops scalar and series state, removes the key from the
  // intern index, bumps the generation, and pushes the slot onto the free
  // list for recycling. Refuses pinned slots (kFailedPrecondition) and
  // missing/already-freed keys (kNotFound). Notifies the observer of a
  // kErase with reclaim = true (journaled as an ordinary erase frame); like
  // Erase, it is not a write — reclamation never triggers ONCHANGE
  // cascades.
  Status ReclaimKey(std::string_view key);
  Status ReclaimKeyId(KeyId id);

  // Generation-validated reads: absent (fallback / kNotFound / empty) when
  // the slot was reclaimed or recycled since `gen` was captured — a stale
  // tag can never observe the recycled slot's new tenant. Stale hits are
  // counted (stale_hits) as proof the validation is doing work.
  Value LoadOrTagged(KeyId id, uint32_t gen, Value fallback) const;
  bool ContainsTagged(KeyId id, uint32_t gen) const;
  Result<double> AggregateTagged(KeyId id, uint32_t gen, AggKind kind, Duration window,
                                 SimTime now) const;
  uint64_t stale_hits() const;

  // Approximate heap footprint of the store: slot table, key strings, scalar
  // payloads, series sample buffers and window-aggregate state. Maintained
  // incrementally (O(1) per mutation); the engine exports it as
  // engine.store.bytes.total and feeds it to the overload governor.
  uint64_t approx_bytes() const;
  // Approximate footprint of one slot (0 for out-of-range ids): 104 B plus
  // the key and a string scalar's bytes, and for a series 264 B more plus
  // sizeof(StoreSampleDump) per sample and sizeof(StoreExtremumDump) per
  // extremum.
  uint64_t SlotApproxBytes(KeyId id) const;

  // --- Scalar KV (the paper's SAVE/LOAD) ---

  // Stores or overwrites a scalar. Nil values are stored (LOAD distinguishes
  // "stored nil" from "missing" via status).
  void Save(std::string_view key, Value value);
  void Save(KeyId id, Value value);

  // Returns the stored scalar, or kNotFound.
  Result<Value> Load(std::string_view key) const;
  Result<Value> Load(KeyId id) const;

  // Returns the stored scalar or `fallback` if missing.
  Value LoadOr(std::string_view key, Value fallback) const;
  Value LoadOr(KeyId id, Value fallback) const;

  bool Contains(std::string_view key) const;
  bool Contains(KeyId id) const;
  Status Erase(std::string_view key);

  // Read-modify-write for numeric counters; creates the key at `delta` if
  // absent. Returns the post-increment value.
  double Increment(std::string_view key, double delta = 1.0);
  double Increment(KeyId id, double delta = 1.0);

  // --- Time series ---

  // Appends a timestamped sample. Samples must be observed with
  // non-decreasing timestamps per key (simulation time is monotone);
  // out-of-order samples are clamped to the newest retained timestamp.
  void Observe(std::string_view key, SimTime now, double sample);
  void Observe(KeyId id, SimTime now, double sample);

  void SetSeriesOptions(std::string_view key, SeriesOptions options);

  // Aggregates samples with timestamp in (now - window, now]. Missing series
  // or empty windows: kCount/kSum/kRate yield 0.0; the others yield
  // kNotFound so rules can distinguish "no data" from "zero".
  Result<double> Aggregate(std::string_view key, AggKind kind, Duration window,
                           SimTime now) const;
  Result<double> Aggregate(KeyId id, AggKind kind, Duration window, SimTime now) const;

  // Value at quantile q in [0,1] over the window (exact, on retained samples).
  Result<double> AggregateQuantile(std::string_view key, double q, Duration window,
                                   SimTime now) const;
  Result<double> AggregateQuantile(KeyId id, double q, Duration window, SimTime now) const;

  // Copies the samples in the window, oldest first (for P1's KS-test style
  // distribution comparisons).
  std::vector<double> WindowSamples(std::string_view key, Duration window, SimTime now) const;
  std::vector<double> WindowSamples(KeyId id, Duration window, SimTime now) const;

  // --- Introspection ---

  size_t scalar_count() const;
  size_t series_count() const;
  std::vector<std::string> ScalarKeys() const;

  // Erases all values (tests / between benchmark repetitions). The intern
  // table survives so previously resolved KeyIds remain valid. Free-listed
  // slots are compacted: their retained key strings are released and any
  // trailing run of freed slots is trimmed from the table (live slot ids
  // never move, so the cached-KeyId stability contract holds — pinned by
  // tests/store_test.cc).
  void Clear();

  // Clear() plus drops the intern table itself — a pristine store, as after
  // construction. Every previously resolved KeyId is invalidated; callers
  // that cached ids (engine monitors, supervisor exports) must be rebuilt.
  // This is the honest crash semantics Kernel::Reboot needs: a rebooted
  // kernel does not remember interning order.
  void Reset();

  // --- Persistence (osguard::persist) ---

  // Snapshot of every slot in interning order — including freed slots, whose
  // dump carries the generation map and free-list rank — with full
  // incremental series state. The observer does not fire.
  std::vector<StoreSlotDump> DumpSlots() const;

  // Reinstates a DumpSlots() snapshot positionally: dump index i describes
  // slot i (prefix-consistent with the original interning order, so
  // monitor-cached KeyIds resolved after a same-spec reload stay correct).
  // Live dumped slots replace whatever the slot currently holds; dead dumped
  // slots are freed (unless the current slot is pinned — a pinned slot's
  // owner re-interned it before the restore) and the free list is rebuilt in
  // the dumped LIFO order. Slots already interned past the dump are left
  // untouched. The observer does not fire.
  void RestoreSlots(const std::vector<StoreSlotDump>& dump);

 private:
  struct Sample {
    SimTime time;
    double value;
    // Running prefixes from the series' last rebase point (the most recent
    // moment the sample deque was empty) through this sample. Window totals
    // are prefix differences; absolute prefixes never need fixup on evict.
    double cum_sum;
    double cum_sumsq;
    uint64_t seq;  // monotone per-series sample number (count via diff)
  };

  // Monotonic deque entry for O(1)-amortized window min/max.
  struct Extremum {
    uint64_t seq;
    SimTime time;
    double value;
  };

  struct Series {
    std::deque<Sample> samples;
    // minima: values strictly increase front->back; front is min of the
    // retained suffix starting at its seq. maxima: values strictly decrease.
    std::deque<Extremum> minima;
    std::deque<Extremum> maxima;
    SeriesOptions options;
    uint64_t next_seq = 0;
    // Remembered window start: the last query's cutoff and the seq of the
    // first sample after it. Samples only append (at or after the newest
    // time) and evict from the front, so every sample before start_seq stays
    // at or before start_cutoff, and a query whose cutoff is not earlier
    // searches forward from there. A seq, not an index, so it survives
    // eviction. Process-local: never imaged or journaled, and a new series
    // starts with a cutoff that every query passes and start_seq 0.
    mutable SimTime start_cutoff = std::numeric_limits<SimTime>::min();
    mutable uint64_t start_seq = 0;
  };

  struct Slot {
    std::string key;
    bool has_scalar = false;
    Value scalar;
    std::unique_ptr<Series> series;  // null until first Observe/SetSeriesOptions
    // --- Key lifecycle ---
    uint32_t generation = 0;  // bumped on reclaim; tagged reads validate it
    bool live = true;         // false after ReclaimKey, until recycled
    bool pinned = false;      // never reclaimed; id is stable forever
    uint64_t bytes = 0;       // cached approximate footprint (see RefreshBytes)
  };

  // Slots in fixed chunks of 2^kChunkShift, indexed by shift and mask. A
  // chunk is allocated once and never moves, so a slot keeps its address for
  // as long as its id is in the table: KeyName() references and the
  // observer's key strings stay valid across interning. Indexing goes
  // through std::vector and std::array operator[], which
  // -D_GLIBCXX_ASSERTIONS bounds-checks; an assert covers the unused tail of
  // the last chunk, whose slots are default-constructed.
  class SlotTable {
   public:
    Slot& operator[](KeyId id) {
      assert(id < size_);
      return (*chunks_[id >> kChunkShift])[id & kChunkMask];
    }
    const Slot& operator[](KeyId id) const {
      assert(id < size_);
      return (*chunks_[id >> kChunkShift])[id & kChunkMask];
    }
    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Slot& back() { return (*this)[static_cast<KeyId>(size_ - 1)]; }
    // Appends a default slot, allocating a chunk when the last one is full.
    Slot& emplace_back();
    // Resets the last slot to default and drops it; frees its chunk when
    // that empties the chunk.
    void pop_back();
    // Grows to n slots (never shrinks).
    void resize(size_t n);
    void clear();

   private:
    static constexpr unsigned kChunkShift = 6;
    static constexpr KeyId kChunkMask = (KeyId{1} << kChunkShift) - 1;
    using Chunk = std::array<Slot, size_t{1} << kChunkShift>;
    std::vector<std::unique_ptr<Chunk>> chunks_;
    size_t size_ = 0;
  };

  // Aborts the process unless the calling thread owns the store. Every
  // public member calls it first.
  void CheckOwner() const;
  static void Append(Series& series, SimTime t, double sample);
  static void Evict(Series& series, SimTime now);
  // Fixed prices of a slot and of a series header. They are constants, not
  // the size of any in-memory type, so the figure is the same for every
  // compiler and standard library, and stays put when the structs change.
  static constexpr uint64_t kSlotHeaderBytes = 104;
  static constexpr uint64_t kSeriesHeaderBytes = 264;
  // Approximate footprint of one slot (see SlotApproxBytes). O(1): deque
  // sizes, no traversal.
  static uint64_t SlotBytes(const Slot& slot);
  // Re-prices `slot` after a mutation and folds the delta into the store
  // total. Every write path that touches slot payloads calls this last.
  void RefreshBytes(Slot& slot);
  // Whether a tagged read of (id, gen) may see the slot; counts a stale hit
  // when the generation moved on.
  bool TagIsCurrent(KeyId id, uint32_t gen) const;
  // Fills in the slot facts of `m.id` and fires the observer, if any.
  // `key` is the slot's key, or for a reclamation its last tenant's.
  void Notify(StoreMutation& m, const std::string& key) const;
  // Notifies a committed Save or Increment: a kSave of the slot's scalar.
  void NotifySave(KeyId id) const;

  const void* owner_;  // the owning thread's token (feature_store.cc)
  SlotTable slots_;
  std::unordered_map<std::string, KeyId, TransparentStringHash, std::equal_to<>> index_;
  // Freed slots awaiting recycling, LIFO. Order is deterministic (reclaims
  // happen at callout boundaries) and survives snapshots via
  // StoreSlotDump::free_rank, so warm restarts recycle identically.
  std::vector<KeyId> free_slots_;
  uint64_t approx_bytes_ = 0;  // incremental total of Slot::bytes
  mutable uint64_t stale_hits_ = 0;
  StoreObserver observer_;
};

}  // namespace osguard

#endif  // SRC_STORE_FEATURE_STORE_H_
