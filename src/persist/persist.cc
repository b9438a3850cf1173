#include "src/persist/persist.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "src/support/logging.h"

namespace osguard {

namespace fs = std::filesystem;

namespace {

// OGJ2 frames carry the image as a kind byte and then the image or a patch;
// OGJ1 frames, which always carried the whole image, are refused by name.
constexpr char kJournalMagic[4] = {'O', 'G', 'J', '2'};
constexpr char kOldJournalMagic[4] = {'O', 'G', 'J', '1'};
constexpr char kSnapshotMagic[4] = {'O', 'G', 'S', '1'};
constexpr uint32_t kSnapshotVersion = 2;  // v2: slot generation/live/free_rank, reclaim flag
// magic + payload length + CRC.
constexpr size_t kFrameHeaderSize = 12;
// magic + version + body length + CRC.
constexpr size_t kSnapshotHeaderSize = 16;

// Fixed wire sizes used to validate count fields before allocating.
constexpr size_t kSampleWireSize = 40;    // i64 + 3*f64 + u64
constexpr size_t kExtremumWireSize = 24;  // u64 + i64 + f64
constexpr size_t kMinOpWireSize = 5;      // kind + empty key
constexpr size_t kMinSlotWireSize = 5;    // empty key + flags
constexpr size_t kPatchRunHeaderSize = 8;  // u32 offset + u32 length

uint32_t ReadU32At(std::string_view data, size_t offset) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data[offset + i])) << (8 * i);
  }
  return v;
}

Status CountError(std::string_view what, uint64_t count, size_t offset) {
  return OutOfRangeError(std::string(what) + " count " + std::to_string(count) +
                         " exceeds remaining input at offset " + std::to_string(offset));
}

void WriteOp(ByteWriter& w, const StoreOp& op) {
  w.U8(static_cast<uint8_t>(op.kind));
  w.Str(op.key);
  switch (op.kind) {
    case StoreMutation::Kind::kSave:
      WriteValue(w, op.value);
      break;
    case StoreMutation::Kind::kObserve:
      w.I64(op.time);
      w.F64(op.sample);
      break;
    case StoreMutation::Kind::kErase:
      w.U8(op.reclaim ? 1 : 0);
      break;
    case StoreMutation::Kind::kSetSeriesOptions:
      w.U64(op.max_samples);
      w.I64(op.max_age);
      break;
  }
}

Result<StoreOp> ReadOp(ByteReader& r) {
  StoreOp op;
  OSGUARD_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
  if (kind > static_cast<uint8_t>(StoreMutation::Kind::kSetSeriesOptions)) {
    return InvalidArgumentError("unknown store-op kind " + std::to_string(kind) +
                                " at offset " + std::to_string(r.offset() - 1));
  }
  op.kind = static_cast<StoreMutation::Kind>(kind);
  OSGUARD_ASSIGN_OR_RETURN(std::string_view key, r.Str());
  op.key = std::string(key);
  switch (op.kind) {
    case StoreMutation::Kind::kSave: {
      OSGUARD_ASSIGN_OR_RETURN(Value value, ReadValue(r));
      op.value = std::move(value);
      break;
    }
    case StoreMutation::Kind::kObserve: {
      OSGUARD_ASSIGN_OR_RETURN(op.time, r.I64());
      OSGUARD_ASSIGN_OR_RETURN(op.sample, r.F64());
      break;
    }
    case StoreMutation::Kind::kErase: {
      OSGUARD_ASSIGN_OR_RETURN(uint8_t reclaim, r.U8());
      if (reclaim > 1) {
        return InvalidArgumentError("bad erase reclaim flag " + std::to_string(reclaim) +
                                    " at offset " + std::to_string(r.offset() - 1));
      }
      op.reclaim = reclaim != 0;
      break;
    }
    case StoreMutation::Kind::kSetSeriesOptions: {
      OSGUARD_ASSIGN_OR_RETURN(op.max_samples, r.U64());
      OSGUARD_ASSIGN_OR_RETURN(op.max_age, r.I64());
      break;
    }
  }
  return op;
}

void WriteSlotDump(ByteWriter& w, const StoreSlotDump& slot) {
  w.Str(slot.key);
  uint8_t flags = 0;
  if (slot.has_scalar) {
    flags |= 1;
  }
  if (slot.has_series) {
    flags |= 2;
  }
  if (slot.live) {
    flags |= 4;
  }
  w.U8(flags);
  w.U32(slot.generation);
  w.U32(slot.free_rank);
  if (slot.has_scalar) {
    WriteValue(w, slot.scalar);
  }
  if (slot.has_series) {
    const StoreSeriesDump& s = slot.series;
    w.U64(s.max_samples);
    w.I64(s.max_age);
    w.U64(s.next_seq);
    // Fixed-size records: one resize per block.
    w.U32(static_cast<uint32_t>(s.samples.size()));
    char* p = w.Extend(s.samples.size() * kSampleWireSize);
    for (const StoreSampleDump& sample : s.samples) {
      PutU64(p, static_cast<uint64_t>(sample.time));
      PutF64(p + 8, sample.value);
      PutF64(p + 16, sample.cum_sum);
      PutF64(p + 24, sample.cum_sumsq);
      PutU64(p + 32, sample.seq);
      p += kSampleWireSize;
    }
    for (const auto* deque : {&s.minima, &s.maxima}) {
      w.U32(static_cast<uint32_t>(deque->size()));
      p = w.Extend(deque->size() * kExtremumWireSize);
      for (const StoreExtremumDump& e : *deque) {
        PutU64(p, e.seq);
        PutU64(p + 8, static_cast<uint64_t>(e.time));
        PutF64(p + 16, e.value);
        p += kExtremumWireSize;
      }
    }
  }
}

// Journal records are encoded in place: BeginFrame reserves the header and
// writes the payload up to the image field, the caller appends the image
// field, and FinishFrame patches in the payload's length and CRC.
void BeginFrame(uint64_t seq, SimTime now, const std::vector<StoreOp>& ops,
                std::string_view report_delta, std::string* out) {
  ByteWriter w(out);
  w.Raw(std::string_view(kJournalMagic, sizeof(kJournalMagic)));
  w.U32(0);  // payload length
  w.U32(0);  // payload CRC
  w.U64(seq);
  w.I64(now);
  w.U32(static_cast<uint32_t>(ops.size()));
  for (const StoreOp& op : ops) {
    WriteOp(w, op);
  }
  w.Str(report_delta);
}

void FinishFrame(size_t start, std::string* out) {
  const size_t payload_at = start + kFrameHeaderSize;
  const std::string_view payload(out->data() + payload_at, out->size() - payload_at);
  ByteWriter w(out);
  w.PatchU32(start + 4, static_cast<uint32_t>(payload.size()));
  w.PatchU32(start + 8, Crc32(payload));
}

// The image field of a committed frame: a patch against `base` when there
// is a base of the same length and the patch comes out smaller than the
// image, else the image in full.
void AppendImageField(std::string_view base, std::string_view image, std::string* out) {
  const size_t kind_at = out->size();
  ByteWriter w(out);
  if (!base.empty() && base.size() == image.size()) {
    w.U8(static_cast<uint8_t>(ImageKind::kPatch));
    w.U32(0);  // patch length
    const size_t patch_at = out->size();
    AppendImagePatch(base, image, out);
    const size_t patch_size = out->size() - patch_at;
    if (patch_size < image.size()) {
      w.PatchU32(patch_at - 4, static_cast<uint32_t>(patch_size));
      return;
    }
    out->resize(kind_at);
  }
  w.U8(static_cast<uint8_t>(ImageKind::kFull));
  w.Str(image);
}

// Appends a snapshot file image in place, like a journal record.
void EncodeSnapshotTo(uint64_t seq, SimTime now, const std::vector<StoreSlotDump>& store,
                      std::string_view report_ring, std::string_view image,
                      std::string* out) {
  const size_t start = out->size();
  ByteWriter w(out);
  w.Raw(std::string_view(kSnapshotMagic, sizeof(kSnapshotMagic)));
  w.U32(kSnapshotVersion);
  w.U32(0);  // body length
  w.U32(0);  // body CRC
  w.U64(seq);
  w.I64(now);
  w.U32(static_cast<uint32_t>(store.size()));
  for (const StoreSlotDump& slot : store) {
    WriteSlotDump(w, slot);
  }
  w.Str(report_ring);
  w.Str(image);
  const size_t body_at = start + kSnapshotHeaderSize;
  const std::string_view body(out->data() + body_at, out->size() - body_at);
  w.PatchU32(start + 8, static_cast<uint32_t>(body.size()));
  w.PatchU32(start + 12, Crc32(body));
}

Result<StoreSlotDump> ReadSlotDump(ByteReader& r, uint32_t version) {
  StoreSlotDump slot;
  OSGUARD_ASSIGN_OR_RETURN(std::string_view key, r.Str());
  slot.key = std::string(key);
  OSGUARD_ASSIGN_OR_RETURN(uint8_t flags, r.U8());
  const uint8_t max_flags = version >= 2 ? 7 : 3;
  if (flags > max_flags) {
    return InvalidArgumentError("unknown slot flags " + std::to_string(flags) +
                                " at offset " + std::to_string(r.offset() - 1));
  }
  slot.has_scalar = (flags & 1) != 0;
  slot.has_series = (flags & 2) != 0;
  if (version >= 2) {
    slot.live = (flags & 4) != 0;
    OSGUARD_ASSIGN_OR_RETURN(slot.generation, r.U32());
    OSGUARD_ASSIGN_OR_RETURN(slot.free_rank, r.U32());
  } else {
    // v1 predates the key lifecycle: every dumped slot was live, at
    // generation zero, with no free list.
    slot.live = true;
    slot.generation = 0;
    slot.free_rank = 0;
  }
  if (slot.has_scalar) {
    OSGUARD_ASSIGN_OR_RETURN(slot.scalar, ReadValue(r));
  }
  if (slot.has_series) {
    StoreSeriesDump& s = slot.series;
    OSGUARD_ASSIGN_OR_RETURN(s.max_samples, r.U64());
    OSGUARD_ASSIGN_OR_RETURN(s.max_age, r.I64());
    OSGUARD_ASSIGN_OR_RETURN(s.next_seq, r.U64());
    OSGUARD_ASSIGN_OR_RETURN(uint32_t nsamples, r.U32());
    if (nsamples > r.remaining() / kSampleWireSize) {
      return CountError("sample", nsamples, r.offset());
    }
    s.samples.reserve(nsamples);
    for (uint32_t i = 0; i < nsamples; ++i) {
      StoreSampleDump sample;
      OSGUARD_ASSIGN_OR_RETURN(sample.time, r.I64());
      OSGUARD_ASSIGN_OR_RETURN(sample.value, r.F64());
      OSGUARD_ASSIGN_OR_RETURN(sample.cum_sum, r.F64());
      OSGUARD_ASSIGN_OR_RETURN(sample.cum_sumsq, r.F64());
      OSGUARD_ASSIGN_OR_RETURN(sample.seq, r.U64());
      s.samples.push_back(sample);
    }
    for (auto* deque : {&s.minima, &s.maxima}) {
      OSGUARD_ASSIGN_OR_RETURN(uint32_t count, r.U32());
      if (count > r.remaining() / kExtremumWireSize) {
        return CountError("extremum", count, r.offset());
      }
      deque->reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        StoreExtremumDump e;
        OSGUARD_ASSIGN_OR_RETURN(e.seq, r.U64());
        OSGUARD_ASSIGN_OR_RETURN(e.time, r.I64());
        OSGUARD_ASSIGN_OR_RETURN(e.value, r.F64());
        deque->push_back(e);
      }
    }
  }
  return slot;
}

}  // namespace

// --- Frame codec ---

void AppendFrame(const JournalFrame& frame, std::string* out) {
  const size_t start = out->size();
  BeginFrame(frame.seq, frame.now, frame.ops, frame.report_delta, out);
  ByteWriter w(out);
  w.U8(static_cast<uint8_t>(frame.image_kind));
  w.Str(frame.image);
  FinishFrame(start, out);
}

void AppendImagePatch(std::string_view base, std::string_view image, std::string* out) {
  ByteWriter w(out);
  w.U32(static_cast<uint32_t>(image.size()));
  const size_t count_at = out->size();
  w.U32(0);  // run count
  uint32_t runs = 0;
  size_t run_begin = 0;
  size_t run_end = 0;  // one past the open run's last byte; 0 while none is open
  const auto close_run = [&] {
    w.U32(static_cast<uint32_t>(run_begin));
    w.U32(static_cast<uint32_t>(run_end - run_begin));
    w.Raw(image.substr(run_begin, run_end - run_begin));
    ++runs;
  };
  const size_t n = image.size();
  for (size_t at = 0; at < n; at += 8) {
    const size_t limit = std::min(at + 8, n);
    if (limit - at == 8) {
      uint64_t a = 0;
      uint64_t b = 0;
      std::memcpy(&a, base.data() + at, 8);
      std::memcpy(&b, image.data() + at, 8);
      if (a == b) {
        continue;
      }
    }
    size_t first = at;
    while (first < limit && base[first] == image[first]) {
      ++first;
    }
    if (first == limit) {
      continue;  // an equal tail shorter than a word
    }
    size_t last = limit;
    while (base[last - 1] == image[last - 1]) {
      --last;
    }
    if (run_end != 0 && first - run_end < kPatchRunHeaderSize) {
      run_end = last;  // the equal bytes between cost less than a run header
      continue;
    }
    if (run_end != 0) {
      close_run();
    }
    run_begin = first;
    run_end = last;
  }
  if (run_end != 0) {
    close_run();
  }
  w.PatchU32(count_at, runs);
}

Status ApplyImagePatch(std::string_view patch, std::string* image) {
  if (image->empty()) {
    return FailedPreconditionError("image patch has no base image");
  }
  // Two walks through the same checks: the first writes nothing, so a patch
  // refused anywhere leaves the image as it was.
  for (const bool write : {false, true}) {
    ByteReader r(patch);
    OSGUARD_ASSIGN_OR_RETURN(uint32_t length, r.U32());
    if (length != image->size()) {
      return InvalidArgumentError("image patch is for a " + std::to_string(length) +
                                  "-byte image, the base image has " +
                                  std::to_string(image->size()) + " bytes");
    }
    OSGUARD_ASSIGN_OR_RETURN(uint32_t runs, r.U32());
    if (runs > r.remaining() / kPatchRunHeaderSize) {
      return CountError("patch run", runs, r.offset());
    }
    for (uint32_t i = 0; i < runs; ++i) {
      OSGUARD_ASSIGN_OR_RETURN(uint32_t offset, r.U32());
      OSGUARD_ASSIGN_OR_RETURN(uint32_t len, r.U32());
      if (offset > image->size() || len > image->size() - offset) {
        return OutOfRangeError("image patch run " + std::to_string(i) + " (" +
                               std::to_string(len) + " bytes at offset " +
                               std::to_string(offset) + ") runs past the end of the " +
                               std::to_string(image->size()) + "-byte image");
      }
      OSGUARD_ASSIGN_OR_RETURN(std::string_view bytes, r.Bytes(len));
      if (write) {
        std::copy(bytes.begin(), bytes.end(), image->begin() + offset);
      }
    }
    if (!r.done()) {
      return InvalidArgumentError("trailing garbage: " + std::to_string(r.remaining()) +
                                  " bytes past the image patch");
    }
  }
  return OkStatus();
}

Result<JournalFrame> DecodeFramePayload(std::string_view payload) {
  ByteReader r(payload);
  JournalFrame frame;
  OSGUARD_ASSIGN_OR_RETURN(frame.seq, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(frame.now, r.I64());
  OSGUARD_ASSIGN_OR_RETURN(uint32_t op_count, r.U32());
  if (op_count > r.remaining() / kMinOpWireSize) {
    return CountError("store-op", op_count, r.offset());
  }
  frame.ops.reserve(op_count);
  for (uint32_t i = 0; i < op_count; ++i) {
    OSGUARD_ASSIGN_OR_RETURN(StoreOp op, ReadOp(r));
    frame.ops.push_back(std::move(op));
  }
  OSGUARD_ASSIGN_OR_RETURN(std::string_view delta, r.Str());
  frame.report_delta = std::string(delta);
  OSGUARD_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
  if (kind > static_cast<uint8_t>(ImageKind::kPatch)) {
    return InvalidArgumentError("unknown image kind " + std::to_string(kind) + " at offset " +
                                std::to_string(r.offset() - 1));
  }
  frame.image_kind = static_cast<ImageKind>(kind);
  OSGUARD_ASSIGN_OR_RETURN(std::string_view image, r.Str());
  frame.image = std::string(image);
  if (!r.done()) {
    return InvalidArgumentError("trailing garbage: " + std::to_string(r.remaining()) +
                                " bytes past the frame payload");
  }
  return frame;
}

FrameScan ScanJournal(std::string_view data) {
  FrameScan scan;
  size_t offset = 0;
  while (offset < data.size()) {
    const size_t left = data.size() - offset;
    if (left < kFrameHeaderSize) {
      scan.detail = "truncated frame header at offset " + std::to_string(offset) + " (" +
                    std::to_string(left) + " bytes)";
      break;
    }
    const std::string_view magic = data.substr(offset, 4);
    if (magic == std::string_view(kOldJournalMagic, 4)) {
      scan.detail = "journal format OGJ1 at offset " + std::to_string(offset) +
                    " is not supported (expected OGJ2)";
      break;
    }
    if (magic != std::string_view(kJournalMagic, 4)) {
      scan.detail = "bad frame magic at offset " + std::to_string(offset);
      break;
    }
    const uint32_t len = ReadU32At(data, offset + 4);
    const uint32_t crc = ReadU32At(data, offset + 8);
    if (left - kFrameHeaderSize < len) {
      scan.detail = "torn frame at offset " + std::to_string(offset) + ": payload needs " +
                    std::to_string(len) + " bytes, file has " +
                    std::to_string(left - kFrameHeaderSize);
      break;
    }
    const std::string_view payload = data.substr(offset + kFrameHeaderSize, len);
    if (Crc32(payload) != crc) {
      scan.detail = "crc mismatch at offset " + std::to_string(offset);
      break;
    }
    Result<JournalFrame> frame = DecodeFramePayload(payload);
    if (!frame.ok()) {
      scan.detail = "undecodable frame at offset " + std::to_string(offset) + ": " +
                    frame.status().ToString();
      break;
    }
    offset += kFrameHeaderSize + len;
    scan.frames.push_back(std::move(*frame));
    scan.frame_ends.push_back(offset);
    scan.valid_bytes = offset;
  }
  scan.discarded_bytes = data.size() - scan.valid_bytes;
  return scan;
}

// --- Snapshot codec ---

std::string EncodeSnapshot(const Snapshot& snapshot) {
  std::string out;
  EncodeSnapshotTo(snapshot.seq, snapshot.now, snapshot.store, snapshot.report_ring,
                   snapshot.image, &out);
  return out;
}

Result<Snapshot> DecodeSnapshot(std::string_view data) {
  if (data.size() < kSnapshotHeaderSize) {
    return OutOfRangeError("truncated snapshot header (" + std::to_string(data.size()) +
                           " bytes)");
  }
  if (data.substr(0, 4) != std::string_view(kSnapshotMagic, 4)) {
    return InvalidArgumentError("bad snapshot magic");
  }
  const uint32_t version = ReadU32At(data, 4);
  if (version == 0 || version > kSnapshotVersion) {
    return InvalidArgumentError("unsupported snapshot version " + std::to_string(version));
  }
  const uint32_t len = ReadU32At(data, 8);
  const uint32_t crc = ReadU32At(data, 12);
  if (data.size() - kSnapshotHeaderSize != len) {
    return OutOfRangeError("snapshot body length " + std::to_string(len) +
                           " does not match file size " +
                           std::to_string(data.size() - kSnapshotHeaderSize));
  }
  const std::string_view body = data.substr(kSnapshotHeaderSize, len);
  if (Crc32(body) != crc) {
    return InvalidArgumentError("snapshot crc mismatch");
  }

  ByteReader r(body);
  Snapshot snapshot;
  OSGUARD_ASSIGN_OR_RETURN(snapshot.seq, r.U64());
  OSGUARD_ASSIGN_OR_RETURN(snapshot.now, r.I64());
  OSGUARD_ASSIGN_OR_RETURN(uint32_t slot_count, r.U32());
  if (slot_count > r.remaining() / kMinSlotWireSize) {
    return CountError("slot", slot_count, r.offset());
  }
  snapshot.store.reserve(slot_count);
  for (uint32_t i = 0; i < slot_count; ++i) {
    OSGUARD_ASSIGN_OR_RETURN(StoreSlotDump slot, ReadSlotDump(r, version));
    snapshot.store.push_back(std::move(slot));
  }
  OSGUARD_ASSIGN_OR_RETURN(std::string_view ring, r.Str());
  snapshot.report_ring = std::string(ring);
  OSGUARD_ASSIGN_OR_RETURN(std::string_view image, r.Str());
  snapshot.image = std::string(image);
  if (!r.done()) {
    return InvalidArgumentError("trailing garbage: " + std::to_string(r.remaining()) +
                                " bytes past the snapshot body");
  }
  return snapshot;
}

// --- Manager ---

PersistManager::PersistManager(PersistOptions options) : options_(std::move(options)) {}

PersistManager::~PersistManager() {
  if (journal_ != nullptr) {
    std::fclose(journal_);
  }
}

void PersistManager::SetChaos(ChaosEngine* chaos) {
  chaos_ = chaos;
  if (chaos_ == nullptr) {
    torn_site_ = crc_site_ = truncate_site_ = snapshot_fail_site_ = kInvalidChaosSite;
    return;
  }
  torn_site_ = chaos_->RegisterSite(kChaosSitePersistTornWrite);
  crc_site_ = chaos_->RegisterSite(kChaosSitePersistCrcCorrupt);
  truncate_site_ = chaos_->RegisterSite(kChaosSitePersistTruncateTail);
  snapshot_fail_site_ = chaos_->RegisterSite(kChaosSitePersistSnapshotFail);
}

void PersistManager::Configure(Duration snapshot_interval, uint64_t journal_budget) {
  options_.snapshot_interval = snapshot_interval;
  options_.journal_budget = journal_budget;
}

void PersistManager::Record(const StoreMutation& m, const std::string& key) {
  StoreOp op;
  op.kind = m.kind;
  op.key = key;
  switch (m.kind) {
    case StoreMutation::Kind::kSave:
      op.value = *m.value;
      break;
    case StoreMutation::Kind::kObserve:
      op.time = m.time;
      op.sample = m.sample;
      break;
    case StoreMutation::Kind::kErase:
      op.reclaim = m.reclaim;
      break;
    case StoreMutation::Kind::kSetSeriesOptions:
      op.max_samples = static_cast<uint64_t>(m.options.max_samples);
      op.max_age = m.options.max_age;
      break;
  }
  pending_ops_.push_back(std::move(op));
}

std::string PersistManager::JournalPath() const { return options_.dir + "/journal.wal"; }

std::string PersistManager::SnapshotPath(uint64_t seq) const {
  char name[48];
  std::snprintf(name, sizeof(name), "snap-%020" PRIu64 ".snap", seq);
  return options_.dir + "/" + name;
}

Status PersistManager::Open() {
  if (journal_ != nullptr) {
    return OkStatus();
  }
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    return InternalError("persist: cannot create '" + options_.dir + "': " + ec.message());
  }
  journal_ = std::fopen(JournalPath().c_str(), "ab");
  if (journal_ == nullptr) {
    return InternalError("persist: cannot open '" + JournalPath() + "' for append");
  }
  const auto size = fs::file_size(JournalPath(), ec);
  journal_bytes_ = ec ? 0 : static_cast<uint64_t>(size);
  return OkStatus();
}

Status PersistManager::AppendToJournal(SimTime now) {
  stats_.bytes_appended += frame_.size();

  // Fault decisions. Each site is queried exactly once per append so the
  // per-site RNG streams replay bit-identically regardless of which faults
  // fire. Damage is applied to the file only — the caller's in-memory state
  // and sequence numbers advance as if the write had landed, exactly like a
  // kernel that loses a buffered write in a crash.
  bool torn = false;
  double torn_frac = 0.5;
  bool chop_tail = false;
  double chop_frac = 0.5;
  if (chaos_ != nullptr) {
    const FaultDecision corrupt = chaos_->Query(crc_site_, now);
    if (corrupt.inject && frame_.size() > kFrameHeaderSize) {
      frame_[kFrameHeaderSize] = static_cast<char>(frame_[kFrameHeaderSize] ^ 1);
      ++stats_.faults_injected;
    }
    const FaultDecision tear = chaos_->Query(torn_site_, now);
    if (tear.inject) {
      torn = true;
      if (tear.value > 0.0 && tear.value <= 1.0) {
        torn_frac = tear.value;
      }
      ++stats_.faults_injected;
    }
    const FaultDecision chop = chaos_->Query(truncate_site_, now);
    if (chop.inject) {
      chop_tail = true;
      if (chop.value > 0.0 && chop.value <= 1.0) {
        chop_frac = chop.value;
      }
      ++stats_.faults_injected;
    }
  }

  size_t to_write = frame_.size();
  if (torn) {
    const auto partial = static_cast<size_t>(static_cast<double>(frame_.size()) * torn_frac);
    to_write = std::min(frame_.size() - 1, std::max<size_t>(1, partial));
  }
  if (std::fwrite(frame_.data(), 1, to_write, journal_) != to_write ||
      std::fflush(journal_) != 0) {
    return InternalError("persist: journal append failed at '" + JournalPath() + "'");
  }
  journal_bytes_ += to_write;

  if (chop_tail && !torn) {
    const auto chop_want = static_cast<size_t>(static_cast<double>(frame_.size()) * chop_frac);
    const uint64_t chop = std::min<uint64_t>(journal_bytes_, std::max<size_t>(1, chop_want));
    std::error_code ec;
    fs::resize_file(JournalPath(), journal_bytes_ - chop, ec);
    if (!ec) {
      journal_bytes_ -= chop;
    }
  }
  return OkStatus();
}

Status PersistManager::CommitFrame(SimTime now, std::string_view report_delta,
                                   std::string_view image) {
  if (!dirty()) {
    return OkStatus();
  }
  if (journal_ == nullptr) {
    return FailedPreconditionError("persist journal not open (call Open() first)");
  }
  // The buffers keep their capacity from one commit to the next.
  frame_.clear();
  BeginFrame(seq_ + 1, now, pending_ops_, report_delta, &frame_);
  AppendImageField(last_image_, image, &frame_);
  FinishFrame(0, &frame_);
  pending_ops_.clear();
  OSGUARD_RETURN_IF_ERROR(AppendToJournal(now));
  last_image_.assign(image);
  ++seq_;
  dirty_ = false;
  ++stats_.frames_committed;
  return OkStatus();
}

bool PersistManager::SnapshotDue(SimTime now) const {
  if (journal_ == nullptr) {
    return false;
  }
  if (options_.journal_budget > 0 && journal_bytes_ > options_.journal_budget) {
    return true;
  }
  return options_.snapshot_interval > 0 &&
         now - last_snapshot_time_ >= options_.snapshot_interval;
}

Status PersistManager::WriteSnapshot(SimTime now, const std::vector<StoreSlotDump>& store,
                                     std::string_view report_ring, std::string_view image) {
  if (journal_ == nullptr) {
    return FailedPreconditionError("persist journal not open (call Open() first)");
  }
  if (chaos_ != nullptr && chaos_->Query(snapshot_fail_site_, now).inject) {
    // Aborted before the temp file exists: the previous snapshot and the
    // (un-rotated) journal stay authoritative, and the next due point
    // retries. Silent by design — lost writes are not synchronous errors.
    ++stats_.snapshot_failures;
    ++stats_.faults_injected;
    return OkStatus();
  }

  std::string bytes;
  EncodeSnapshotTo(seq_, now, store, report_ring, image, &bytes);

  const std::string tmp = options_.dir + "/snap.tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    ++stats_.snapshot_failures;
    return InternalError("persist: cannot open '" + tmp + "'");
  }
  const bool wrote = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (!wrote || !flushed) {
    ++stats_.snapshot_failures;
    std::error_code ec;
    fs::remove(tmp, ec);
    return InternalError("persist: snapshot write failed at '" + tmp + "'");
  }
  std::error_code ec;
  fs::rename(tmp, SnapshotPath(seq_), ec);
  if (ec) {
    ++stats_.snapshot_failures;
    fs::remove(tmp, ec);
    return InternalError("persist: snapshot rename failed: " + ec.message());
  }
  ++stats_.snapshots_written;
  last_snapshot_time_ = now;
  last_image_.assign(image);

  // Rotation: frames covered by the snapshot are dead weight. A crash
  // between the rename above and this truncation is handled at recovery by
  // skipping journal frames with seq <= snapshot.seq.
  fs::resize_file(JournalPath(), 0, ec);
  if (!ec) {
    journal_bytes_ = 0;
    ++stats_.rotations;
  }
  PruneSnapshots();
  return OkStatus();
}

void PersistManager::PruneSnapshots() {
  std::vector<std::string> snaps;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".snap") == 0) {
      snaps.push_back(entry.path().string());
    }
  }
  // Zero-padded sequence numbers: lexical descending == newest first.
  std::sort(snaps.rbegin(), snaps.rend());
  for (size_t i = 2; i < snaps.size(); ++i) {
    fs::remove(snaps[i], ec);
  }
}

Result<RecoveredState> PersistManager::LoadForRecovery() {
  RecoveredState out;
  RecoveryInfo& info = out.info;

  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    return InternalError("persist: cannot create '" + options_.dir + "': " + ec.message());
  }

  auto read_file = [](const std::string& path) -> std::string {
    std::string data;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      return data;
    }
    char buf[65536];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      data.append(buf, n);
    }
    std::fclose(f);
    return data;
  };

  // Rung 1 and 2: newest decodable snapshot, else the previous one. A stale
  // temp file from an interrupted snapshot write is ignored entirely (it
  // never carries the .snap suffix).
  std::vector<std::string> snaps;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("snap-", 0) == 0 && name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".snap") == 0) {
      snaps.push_back(entry.path().string());
    }
  }
  std::sort(snaps.rbegin(), snaps.rend());
  bool have_snapshot = false;
  for (size_t i = 0; i < snaps.size(); ++i) {
    const std::string data = read_file(snaps[i]);
    Result<Snapshot> snapshot = DecodeSnapshot(data);
    if (snapshot.ok()) {
      out.base = std::move(*snapshot);
      have_snapshot = true;
      info.used_snapshot = true;
      info.used_previous_snapshot = i > 0;
      break;
    }
    ++info.snapshots_rejected;
    info.detail += "rejected " + snaps[i] + ": " +
                   Annotate(snapshot.status(), snaps[i]).message() + "; ";
  }

  // Rung 3: the journal's contiguous valid suffix on top of the base (or on
  // top of nothing — a journal-only warm start — when its first frame is
  // seq 1 and no snapshot survived).
  const std::string journal_data = read_file(JournalPath());
  FrameScan scan = ScanJournal(journal_data);
  if (!scan.detail.empty()) {
    info.detail += JournalPath() + ": " + scan.detail + "; ";
  }
  info.bytes_discarded = scan.discarded_bytes;

  uint64_t expected = out.base.seq + 1;
  size_t keep_bytes = 0;  // journal prefix that stays on disk
  // One image, the base's, takes each frame's image in turn: a patch
  // applies to it in place, a full image replaces it.
  out.image = std::move(out.base.image);
  out.frames.reserve(scan.frames.size());
  for (size_t i = 0; i < scan.frames.size(); ++i) {
    JournalFrame& frame = scan.frames[i];
    if (frame.seq <= out.base.seq) {
      keep_bytes = scan.frame_ends[i];  // pre-rotation remnant, superseded
      continue;
    }
    std::string damage;
    if (frame.seq != expected) {
      damage = "sequence gap (frame " + std::to_string(frame.seq) + ", expected " +
               std::to_string(expected) + ")";
    } else if (frame.image_kind == ImageKind::kPatch) {
      const Status applied = ApplyImagePatch(frame.image, &out.image);
      if (!applied.ok()) {
        damage = "frame " + std::to_string(frame.seq) + " cannot apply its image patch: " +
                 applied.message();
      }
    } else {
      out.image = std::move(frame.image);
    }
    if (!damage.empty()) {
      info.frames_discarded += scan.frames.size() - i;
      info.detail += JournalPath() + ": " + damage + "; ";
      break;
    }
    frame.image.clear();  // folded into out.image
    out.frames.push_back(std::move(frame));
    keep_bytes = scan.frame_ends[i];
    ++expected;
  }
  last_image_.assign(out.image);

  // Drop the invalid tail (and any post-gap or unpatchable frames) so future
  // appends start at a clean frame boundary.
  if (!journal_data.empty() && keep_bytes < journal_data.size()) {
    fs::resize_file(JournalPath(), keep_bytes, ec);
  }

  info.last_seq = out.frames.empty() ? out.base.seq : out.frames.back().seq;
  info.frames_replayed = out.frames.size();
  info.cold_start = !have_snapshot && out.frames.empty();

  // Prime the manager to continue the sequence.
  seq_ = info.last_seq;
  const SimTime recovered_now = out.frames.empty() ? out.base.now : out.frames.back().now;
  last_snapshot_time_ = recovered_now;
  dirty_ = false;
  pending_ops_.clear();

  if (info.cold_start) {
    if (info.detail.empty()) {
      info.detail = "cold start (no persisted state)";
    }
    OSGUARD_LOG(kInfo) << "persist: cold start in '" << options_.dir << "' — " << info.detail;
  } else {
    OSGUARD_LOG(kInfo) << "persist: recovered seq " << info.last_seq << " ("
                       << (info.used_snapshot
                               ? (info.used_previous_snapshot ? "previous snapshot"
                                                              : "snapshot")
                               : "journal only")
                       << " + " << info.frames_replayed << " frames, "
                       << info.frames_discarded << " discarded, " << info.bytes_discarded
                       << " bytes dropped)"
                       << (info.detail.empty() ? "" : " — ") << info.detail;
  }
  return out;
}

}  // namespace osguard
