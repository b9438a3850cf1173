// osguard::persist — crash-consistent guardrail state.
//
// The paper treats guardrails as kernel infrastructure that must keep
// working precisely when the system is unhealthy. That includes surviving
// the unhealthiest event of all: a panic/reboot. Without persistence a
// rebooted guardrail loses its violation-protocol clocks (hysteresis
// evidence, cooldowns, in_violation), its window aggregates, and its
// supervisor breaker state — so it either re-trips spuriously or silently
// misses an in-progress violation. This subsystem makes that state durable:
//
//   * Write-ahead journal (journal.wal) — a CRC-framed, length-prefixed log
//     of committed state transitions, appended once per engine callout
//     boundary. Each frame carries the store mutations since the previous
//     frame, the new report records, and the engine's protocol-state image
//     (encoded by the engine; opaque here) — as the byte runs that differ
//     from the previous frame's image, or in full.
//   * Compacted snapshots (snap-<seq>.snap) — periodic full dumps of the
//     feature store (including incremental window internals), the report
//     ring, and the engine image, written to a temp file and atomically
//     rename-swapped. The two newest snapshots are retained; a successful
//     snapshot truncates the journal (rotation).
//   * Recovery — LoadForRecovery() walks the recovery ladder: newest valid
//     snapshot, else the previous one, else cold start; then the contiguous
//     valid journal suffix is replayed on top. Torn frames, CRC damage,
//     truncated tails, and stale snapshots degrade gracefully (the invalid
//     tail is discarded and logged) — recovery never crashes and never
//     resumes corrupt state.
//
// Determinism contract: the journal frames *committed* transitions only.
// State that was live at crash time but never reached a commit point is
// intentionally lost — the hosting harness re-executes from the recovered
// sequence number (Kernel::Reboot / the persist differential test do exactly
// that), so injected file damage costs recovery time, never correctness.
//
// Layering: persist depends on store + chaos + support only. The engine's
// report/image blobs cross this boundary as opaque byte strings, which keeps
// the dependency graph acyclic (runtime depends on persist, not vice versa).

#ifndef SRC_PERSIST_PERSIST_H_
#define SRC_PERSIST_PERSIST_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "src/chaos/chaos.h"
#include "src/persist/wire.h"
#include "src/store/feature_store.h"
#include "src/support/status.h"
#include "src/support/time.h"

namespace osguard {

// One journaled store mutation, keyed by name (KeyIds are not stable across
// a reboot). Replay goes through the store's public API, which reconstructs
// the incremental series state deterministically.
struct StoreOp {
  StoreMutation::Kind kind = StoreMutation::Kind::kSave;
  std::string key;
  Value value;              // kSave
  SimTime time = 0;         // kObserve
  double sample = 0.0;      // kObserve
  uint64_t max_samples = 0; // kSetSeriesOptions
  Duration max_age = 0;     // kSetSeriesOptions
  bool reclaim = false;     // kErase: lifecycle reclaim (slot recycled) vs plain erase
};

// How a journal frame carries the engine image: whole, or as a patch of the
// byte runs that differ from the previous frame's image.
enum class ImageKind : uint8_t { kFull = 0, kPatch = 1 };

// One committed callout boundary. `report_delta` and `image` are engine-
// encoded blobs (see Engine::EncodeImage); persist frames, checksums, and
// transports them without interpreting a byte. A kPatch frame's `image`
// holds the patch bytes (AppendImagePatch). LoadForRecovery folds every
// frame's image into RecoveredState::image, so the frames it returns carry
// none.
struct JournalFrame {
  uint64_t seq = 0;
  SimTime now = 0;
  std::vector<StoreOp> ops;
  std::string report_delta;
  ImageKind image_kind = ImageKind::kFull;
  std::string image;
};

// A full compacted state dump.
struct Snapshot {
  uint64_t seq = 0;
  SimTime now = 0;
  std::vector<StoreSlotDump> store;
  std::string report_ring;  // opaque engine blob
  std::string image;        // opaque engine blob
};

// --- Codec (exposed for tests and the decoder fuzz target) ---

// Appends one fully framed journal record: magic "OGJ2", u32 payload length,
// u32 CRC-32 of the payload, payload. The image is written as the frame
// holds it (kind byte, then its bytes).
void AppendFrame(const JournalFrame& frame, std::string* out);

// Appends the patch that turns `base` into `image`, two images of the same
// length: u32 image length, u32 run count, then per run u32 offset, u32
// length and the run's bytes from `image`. Runs are found eight bytes at a
// time, trimmed to the bytes that differ, and merged when fewer bytes than
// a run header separate them.
void AppendImagePatch(std::string_view base, std::string_view image, std::string* out);

// Turns `image` into the image after it by applying `patch` in place. A
// patch that cannot apply is refused: one with no base image, one for an
// image of another length, a run past the end of the image or of the
// patch, trailing bytes. Every run is checked before any byte is written,
// so a refused patch leaves `image` as it was.
Status ApplyImagePatch(std::string_view patch, std::string* image);

// Decodes a frame payload (the bytes the CRC covers). Errors carry byte
// offsets.
Result<JournalFrame> DecodeFramePayload(std::string_view payload);

// Walks a journal buffer frame by frame, stopping at the first invalid
// record (bad magic, bad CRC, truncated tail, undecodable payload; a frame
// of the older "OGJ1" format is named as such). Never fails: damage
// terminates the scan and is described in `detail`. Patches are not
// applied here: that needs the base image, which recovery owns.
struct FrameScan {
  std::vector<JournalFrame> frames;
  // frame_ends[i] = byte offset one past frames[i] (recovery truncates the
  // file at one of these boundaries).
  std::vector<size_t> frame_ends;
  // Offset one past the last fully valid frame: the journal's usable prefix.
  size_t valid_bytes = 0;
  size_t discarded_bytes = 0;  // bytes past valid_bytes
  std::string detail;          // why the scan stopped (empty = clean EOF)
};
FrameScan ScanJournal(std::string_view data);

// Snapshot file image: magic "OGS1", u32 version, u32 body length, u32
// CRC-32 of the body, body.
std::string EncodeSnapshot(const Snapshot& snapshot);
Result<Snapshot> DecodeSnapshot(std::string_view data);

// --- Manager ---

struct PersistOptions {
  std::string dir;
  // Simulated time between compacted snapshots; <= 0 disables periodic
  // snapshots (the journal then only rotates on the byte budget).
  Duration snapshot_interval = Seconds(10);
  // Journal size that forces a snapshot + rotation at the next commit;
  // 0 = unbounded.
  uint64_t journal_budget = 1 << 20;
};

struct PersistStats {
  uint64_t frames_committed = 0;
  uint64_t bytes_appended = 0;      // logical frame bytes (pre-fault)
  uint64_t snapshots_written = 0;
  uint64_t snapshot_failures = 0;   // aborted before rename (I/O or chaos)
  uint64_t rotations = 0;           // journal truncations after a snapshot
  uint64_t faults_injected = 0;     // chaos decisions that damaged a file
};

// How a recovery went — surfaced to the host (and a single log line); kept
// out of the feature store so post-recovery store fingerprints stay
// comparable with an uninterrupted run.
struct RecoveryInfo {
  bool cold_start = true;               // no usable snapshot and no journal base
  bool used_snapshot = false;
  bool used_previous_snapshot = false;  // newest snapshot was rejected
  uint64_t snapshots_rejected = 0;
  uint64_t last_seq = 0;                // sequence number of the recovered state
  uint64_t frames_replayed = 0;
  uint64_t frames_discarded = 0;        // valid frames unusable (seq gap, bad patch)
  uint64_t bytes_discarded = 0;         // invalid journal tail dropped
  std::string detail;                   // human-readable recovery summary
};

struct RecoveredState {
  Snapshot base;                    // seq 0 + empty on cold start; its image
                                    // is moved into `image`
  std::vector<JournalFrame> frames; // contiguous suffix to replay, oldest
                                    // first; their images are in `image`
  std::string image;                // the last committed image: the base's,
                                    // patched by every frame in order
  RecoveryInfo info;
};

// Owns the journal/snapshot files in one directory and the commit protocol.
// Single-threaded, like the engine that drives it.
class PersistManager {
 public:
  explicit PersistManager(PersistOptions options);
  ~PersistManager();
  PersistManager(const PersistManager&) = delete;
  PersistManager& operator=(const PersistManager&) = delete;

  // Attaches the fault-injection engine and registers the persist.* sites
  // (torn_write / crc_corrupt / truncate_tail / snapshot_fail). Faults
  // damage the files only: the in-memory run continues unaware and the
  // damage is discovered at the next recovery.
  void SetChaos(ChaosEngine* chaos);

  // Applies a spec-level `persist { interval, journal_budget }` block.
  void Configure(Duration snapshot_interval, uint64_t journal_budget);

  // Buffers a committed store mutation as a pending StoreOp for the next
  // frame. The engine the manager is attached to (Engine::SetPersist) calls
  // it from the store's observer for every mutation.
  void Record(const StoreMutation& m, const std::string& key);

  // Marks engine-side state (monitor stats, breaker, governor...) changed since
  // the last commit. Store mutations mark dirty implicitly.
  void MarkDirty() { dirty_ = true; }
  bool dirty() const { return dirty_ || !pending_ops_.empty(); }

  uint64_t last_committed_seq() const { return seq_; }
  SimTime last_snapshot_time() const { return last_snapshot_time_; }
  const PersistStats& stats() const { return stats_; }
  const PersistOptions& options() const { return options_; }

  // Creates the directory and opens the journal for appending (idempotent).
  // Call LoadForRecovery() first when recovering; Open() on a fresh
  // directory starts the journal at sequence 1.
  Status Open();

  // Commits everything since the last commit as one frame: pending store
  // ops + the engine's report delta and state image. The image is journaled
  // as a patch against the last committed image, or in full when there is
  // none, its length changed, or the patch would not be smaller. No-op
  // when clean. Damage injected by chaos is deliberately not reported
  // here — a real kernel does not learn about lost writes synchronously
  // either.
  Status CommitFrame(SimTime now, std::string_view report_delta, std::string_view image);

  // True when a compacted snapshot should follow the next commit (interval
  // elapsed or journal budget exceeded).
  bool SnapshotDue(SimTime now) const;

  // Writes a compacted snapshot (temp file + atomic rename), retains the
  // two newest, and truncates the journal on success. Recovery applies the
  // next frame's patch to the snapshot's image, so that image becomes the
  // base the next commit diffs against.
  Status WriteSnapshot(SimTime now, const std::vector<StoreSlotDump>& store,
                       std::string_view report_ring, std::string_view image);

  // Recovery ladder. Reads the directory, picks the newest decodable
  // snapshot (falling back to the previous one), scans the journal for the
  // contiguous valid suffix, truncates the journal file to its usable
  // prefix, and primes the manager to continue appending at
  // last_seq + 1. The frames' images are applied in sequence order to one
  // copy of the base snapshot's image, in place; a patch that cannot apply
  // ends the usable suffix like a CRC mismatch. Never fails on damaged
  // input — damage degrades the result and is described in RecoveryInfo.
  // Errors are real I/O problems (unreadable directory) only.
  Result<RecoveredState> LoadForRecovery();

 private:
  std::string JournalPath() const;
  std::string SnapshotPath(uint64_t seq) const;
  // Writes frame_ (already encoded) to the journal, applying any faults
  // the chaos sites decide on.
  Status AppendToJournal(SimTime now);
  void PruneSnapshots();

  PersistOptions options_;
  ChaosEngine* chaos_ = nullptr;
  ChaosSiteId torn_site_ = kInvalidChaosSite;
  ChaosSiteId crc_site_ = kInvalidChaosSite;
  ChaosSiteId truncate_site_ = kInvalidChaosSite;
  ChaosSiteId snapshot_fail_site_ = kInvalidChaosSite;

  std::FILE* journal_ = nullptr;
  uint64_t journal_bytes_ = 0;  // current journal file size
  uint64_t seq_ = 0;            // last committed frame sequence
  SimTime last_snapshot_time_ = 0;
  bool dirty_ = false;
  std::vector<StoreOp> pending_ops_;
  std::string frame_;  // the frame being appended; keeps its capacity
  // The image the next frame's patch is taken against: the last committed
  // frame's (or the last snapshot's), the rebuilt final image after
  // LoadForRecovery, empty after a cold start.
  std::string last_image_;
  PersistStats stats_;
};

}  // namespace osguard

#endif  // SRC_PERSIST_PERSIST_H_
