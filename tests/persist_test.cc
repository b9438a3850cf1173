// osguard::persist — crash-consistency suite.
//
// The load-bearing property is the 1000-seed crash/replay differential: a run
// that crashes at a random commit boundary and warm-restarts through
// Engine::Restore must end bit-identical (feature store, report ring, full
// engine image) to the same run uninterrupted — including when the persist
// chaos sites were tearing frames, flipping CRC-covered bits, and chopping
// journal tails the whole time. Around it: codec round-trips, the recovery
// ladder's graceful degradation, the MonitorStats survival matrix
// (cold start / hot replace / warm restart), and the kernel panic/reboot
// wiring.
//
// CI sweeps this binary (`ctest -L persist`) under ASan/UBSan with several
// OSGUARD_CHAOS_SEED values, like the chaos suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/actions/policy_registry.h"
#include "src/chaos/chaos.h"
#include "src/persist/persist.h"
#include "src/runtime/engine.h"
#include "src/sim/kernel.h"
#include "src/store/feature_store.h"
#include "src/support/rng.h"
#include "src/support/time.h"
#include "tests/test_dir.h"

namespace osguard {
namespace {

namespace fs = std::filesystem;

uint64_t SeedBase() {
  const char* env = std::getenv("OSGUARD_CHAOS_SEED");
  return env != nullptr ? static_cast<uint64_t>(std::strtoull(env, nullptr, 10)) : 0;
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return data;
}

void WriteFile(const fs::path& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

// `prefix` followed by `n`, built by append: GCC 12 reports a false
// -Wrestrict on `"literal" + std::to_string(n)` at -O3.
std::string Numbered(const char* prefix, uint64_t n) {
  std::string out = prefix;
  out += std::to_string(n);
  return out;
}

// --- Codec ---

JournalFrame MakeFrame(uint64_t seq) {
  JournalFrame frame;
  frame.seq = seq;
  frame.now = static_cast<SimTime>(seq) * Milliseconds(10);
  StoreOp save;
  save.kind = StoreMutation::Kind::kSave;
  save.key = Numbered("k", seq);
  save.value = Value(static_cast<double>(seq) * 1.5);
  frame.ops.push_back(save);
  StoreOp observe;
  observe.kind = StoreMutation::Kind::kObserve;
  observe.key = "series";
  observe.time = frame.now;
  observe.sample = static_cast<double>(seq);
  frame.ops.push_back(observe);
  frame.report_delta = Numbered("report-", seq);
  frame.image_kind = seq % 2 == 0 ? ImageKind::kPatch : ImageKind::kFull;
  frame.image = Numbered("image-", seq);
  return frame;
}

TEST(PersistCodec, JournalRoundTrip) {
  std::string buffer;
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    AppendFrame(MakeFrame(seq), &buffer);
  }
  const FrameScan scan = ScanJournal(buffer);
  EXPECT_TRUE(scan.detail.empty()) << scan.detail;
  EXPECT_EQ(scan.valid_bytes, buffer.size());
  EXPECT_EQ(scan.discarded_bytes, 0u);
  ASSERT_EQ(scan.frames.size(), 5u);
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    const JournalFrame& frame = scan.frames[seq - 1];
    EXPECT_EQ(frame.seq, seq);
    ASSERT_EQ(frame.ops.size(), 2u);
    EXPECT_EQ(frame.ops[0].key, Numbered("k", seq));
    EXPECT_EQ(frame.ops[1].sample, static_cast<double>(seq));
    EXPECT_EQ(frame.report_delta, Numbered("report-", seq));
    EXPECT_EQ(frame.image_kind, seq % 2 == 0 ? ImageKind::kPatch : ImageKind::kFull);
    EXPECT_EQ(frame.image, Numbered("image-", seq));
  }

  // An image kind other than full (0) and patch (1) does not decode.
  JournalFrame odd = MakeFrame(1);
  odd.image_kind = static_cast<ImageKind>(2);
  std::string bytes;
  AppendFrame(odd, &bytes);
  const FrameScan refused = ScanJournal(bytes);
  EXPECT_TRUE(refused.frames.empty());
  EXPECT_NE(refused.detail.find("unknown image kind 2 at offset"), std::string::npos)
      << refused.detail;
}

TEST(PersistCodec, TornTailKeepsThePrefix) {
  std::string buffer;
  AppendFrame(MakeFrame(1), &buffer);
  AppendFrame(MakeFrame(2), &buffer);
  const size_t two_frames = buffer.size();
  AppendFrame(MakeFrame(3), &buffer);
  // Tear the third frame: every truncation point inside it must yield exactly
  // the two-frame prefix plus a non-empty damage description.
  for (size_t cut = two_frames + 1; cut < buffer.size(); ++cut) {
    const FrameScan scan = ScanJournal(std::string_view(buffer).substr(0, cut));
    EXPECT_EQ(scan.frames.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(scan.valid_bytes, two_frames) << "cut at " << cut;
    EXPECT_FALSE(scan.detail.empty()) << "cut at " << cut;
  }
}

TEST(PersistCodec, BitFlipStopsTheScanAtTheDamage) {
  std::string buffer;
  AppendFrame(MakeFrame(1), &buffer);
  const size_t one_frame = buffer.size();
  AppendFrame(MakeFrame(2), &buffer);
  AppendFrame(MakeFrame(3), &buffer);
  // Flip one bit inside the second frame's bytes: frame 1 survives, the rest
  // is discarded (CRC or framing failure — either is acceptable, crashing or
  // decoding garbage is not).
  for (size_t at = one_frame; at < buffer.size(); at += 7) {
    std::string damaged = buffer;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x10);
    const FrameScan scan = ScanJournal(damaged);
    ASSERT_LE(scan.frames.size(), 3u);
    ASSERT_GE(scan.frames.size(), 1u) << "flip at " << at;
    EXPECT_EQ(scan.frames[0].seq, 1u) << "flip at " << at;
    if (scan.frames.size() < 3) {
      EXPECT_FALSE(scan.detail.empty()) << "flip at " << at;
      EXPECT_GT(scan.discarded_bytes, 0u) << "flip at " << at;
    }
  }
}

TEST(PersistCodec, SnapshotRoundTripAndDamageRejection) {
  Snapshot snapshot;
  snapshot.seq = 42;
  snapshot.now = Seconds(3);
  StoreSlotDump slot;
  slot.key = "lat.flag";
  slot.has_scalar = true;
  slot.scalar = Value(true);
  snapshot.store.push_back(slot);
  snapshot.report_ring = "ring-bytes";
  snapshot.image = "image-bytes";

  const std::string encoded = EncodeSnapshot(snapshot);
  auto decoded = DecodeSnapshot(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().seq, 42u);
  EXPECT_EQ(decoded.value().now, Seconds(3));
  ASSERT_EQ(decoded.value().store.size(), 1u);
  EXPECT_EQ(decoded.value().store[0].key, "lat.flag");
  EXPECT_EQ(decoded.value().report_ring, "ring-bytes");
  EXPECT_EQ(decoded.value().image, "image-bytes");

  // Every truncation must be a clean error.
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    auto truncated = DecodeSnapshot(std::string_view(encoded).substr(0, cut));
    EXPECT_FALSE(truncated.ok()) << "cut at " << cut;
    EXPECT_FALSE(truncated.status().message().empty()) << "cut at " << cut;
  }
  // And every single-bit flip in the CRC-covered body must be rejected.
  for (size_t at = 0; at < encoded.size(); at += 3) {
    std::string damaged = encoded;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x01);
    auto result = DecodeSnapshot(damaged);
    if (result.ok()) {
      // Flips in the length/version header can still be caught as framing
      // errors; a flip that decodes successfully would be a CRC hole.
      FAIL() << "bit flip at " << at << " decoded successfully";
    }
  }
}

// --- Golden files ---
//
// tests/corpus/valid_journal_golden.bin and valid_snapshot_golden.bin pin
// the on-disk format byte for byte. They are the journal and the snapshot
// that RunGoldenScript leaves in its directory: the snapshot is cut at 1s
// and holds live and reclaimed slots and a series with samples, minima and
// maxima; the journal frames after it carry every StoreOp kind, every Value
// type (a nested list among them), report deltas, and engine images: two
// patches against the image before them, then (slow-tick's first report
// grows the image) one full image. To accept a deliberate format change,
// replace the files with the ones a failing
// PersistGolden.ScriptedRunWritesTheGoldenFiles names.

constexpr char kGoldenSpec[] = R"(
guardrail lat-guard {
  trigger: { TIMER(100ms, 100ms) },
  rule: { COUNT(io.lat, 1s) == 0 || MAX(io.lat, 1s) <= 5ms },
  action: { SAVE(lat.tripped, true); REPORT("lat high", MAX(io.lat, 1s)) },
  on_satisfy: { SAVE(lat.tripped, false) },
  meta: { severity = warning }
}
guardrail slow-tick {
  trigger: { TIMER(250ms, 250ms) },
  rule: { LOAD_OR(ticks, 0) < 2 },
  action: { REPORT("ticks", LOAD_OR(ticks, 0)) }
}
persist { interval = 1s, journal_budget = 0 }
)";

// Runs the golden script in a fresh directory and returns it.
fs::path RunGoldenScript(const std::string& name) {
  const fs::path dir = FreshTestDir(name);
  FeatureStore store;
  PolicyRegistry registry;
  Engine engine(&store, &registry);
  PersistOptions options;
  options.dir = dir.string();
  PersistManager persist(options);
  engine.SetPersist(&persist);
  EXPECT_TRUE(engine.LoadSource(kGoldenSpec).ok());
  EXPECT_TRUE(persist.Open().ok());

  // Up to the cut at 1s: a series whose samples rise and fall, so both
  // extremum deques hold several entries; scalars; two reclaimed slots.
  const double lat[] = {3e6, 1e6, 4e6, 1.5e6, 9e6, 2.6e6, 5.3e6, 5.8e6, 0.7e6, 2e6};
  store.Save("keep.me", Value(int64_t{7}));
  store.Save("session.a", Value("alpha"));
  store.Save("session.b", Value(0.25));
  for (int i = 0; i < 10; ++i) {
    store.Observe("io.lat", Milliseconds(50) + i * Milliseconds(100), lat[i]);
    if (i == 3) {
      EXPECT_TRUE(store.ReclaimKey("session.a").ok());
      EXPECT_TRUE(store.ReclaimKey("session.b").ok());
    }
    if (i == 6) {
      store.Increment("ticks", 1.0);
    }
    engine.AdvanceTo(Milliseconds(100) * (i + 1));
  }
  EXPECT_EQ(persist.stats().snapshots_written, 1u);

  // After the cut: every Value type and every StoreOp kind.
  store.Save("v.nil", Value());
  store.Save("v.int", Value(int64_t{-42}));
  store.Save("v.float", Value(2.5));
  store.Save("v.bool", Value(true));
  store.Save("v.string", Value("golden"));
  store.Save("v.list",
             Value(std::vector<Value>{Value(1), Value("two"),
                                      Value(std::vector<Value>{Value(3.0), Value(false)})}));
  engine.AdvanceTo(Milliseconds(1100));
  store.Observe("io.lat", Milliseconds(1150), 7e6);
  SeriesOptions series;
  series.max_samples = 64;
  series.max_age = Seconds(2);
  store.SetSeriesOptions("io.lat", series);
  EXPECT_TRUE(store.Erase("v.bool").ok());
  EXPECT_TRUE(store.ReclaimKey("v.string").ok());
  store.Increment("ticks", 2.0);
  engine.AdvanceTo(Milliseconds(1200));
  engine.AdvanceTo(Milliseconds(1300));
  EXPECT_EQ(persist.stats().snapshots_written, 1u);
  return dir;
}

fs::path CorpusFile(const std::string& name) { return fs::path(OSGUARD_CORPUS_DIR) / name; }

// Offset of the first byte where `a` and `b` differ (the shorter length if
// one is a prefix of the other), for failure messages that stay readable.
size_t FirstDifference(std::string_view a, std::string_view b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) {
      return i;
    }
  }
  return n;
}

uint32_t BitwiseCrc32Step(uint32_t state, uint8_t byte) {
  state ^= byte;
  for (int k = 0; k < 8; ++k) {
    state = (state & 1) != 0 ? (state >> 1) ^ 0xedb88320u : state >> 1;
  }
  return state;
}

TEST(PersistGolden, GoldenFilesReencodeByteIdentically) {
  // The journal: decode every frame and encode it again.
  const std::string journal = ReadFile(CorpusFile("valid_journal_golden.bin"));
  const FrameScan scan = ScanJournal(journal);
  ASSERT_TRUE(scan.detail.empty()) << scan.detail;
  ASSERT_EQ(scan.valid_bytes, journal.size());
  std::string reencoded;
  for (const JournalFrame& frame : scan.frames) {
    AppendFrame(frame, &reencoded);
  }
  EXPECT_TRUE(reencoded == journal) << "journal differs at byte "
                                    << FirstDifference(reencoded, journal) << " of "
                                    << journal.size();
  // What the golden covers, so a regenerated file cannot silently lose it.
  std::set<StoreMutation::Kind> kinds;
  std::set<ValueType> types;
  bool nested_list = false;
  bool reclaim = false;
  bool plain_erase = false;
  bool delta = false;
  for (const JournalFrame& frame : scan.frames) {
    EXPECT_FALSE(frame.image.empty());
    delta = delta || !frame.report_delta.empty();
    for (const StoreOp& op : frame.ops) {
      kinds.insert(op.kind);
      if (op.kind == StoreMutation::Kind::kSave) {
        types.insert(op.value.type());
        if (const std::vector<Value>* items = op.value.IfList()) {
          for (const Value& item : *items) {
            nested_list = nested_list || item.type() == ValueType::kList;
          }
        }
      }
      if (op.kind == StoreMutation::Kind::kErase) {
        (op.reclaim ? reclaim : plain_erase) = true;
      }
    }
  }
  EXPECT_EQ(kinds.size(), 4u);
  EXPECT_EQ(types.size(), 6u);
  EXPECT_TRUE(nested_list);
  EXPECT_TRUE(reclaim);
  EXPECT_TRUE(plain_erase);
  EXPECT_TRUE(delta);

  // The snapshot: a v2 file that decodes and encodes back to itself.
  const std::string snap_bytes = ReadFile(CorpusFile("valid_snapshot_golden.bin"));
  ASSERT_GE(snap_bytes.size(), 16u);
  EXPECT_EQ(snap_bytes.substr(0, 8), std::string("OGS1\x02\0\0\0", 8));
  auto snapshot = DecodeSnapshot(snap_bytes);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const std::string snap_reencoded = EncodeSnapshot(*snapshot);
  EXPECT_TRUE(snap_reencoded == snap_bytes)
      << "snapshot differs at byte " << FirstDifference(snap_reencoded, snap_bytes) << " of "
      << snap_bytes.size();
  bool live = false;
  bool reclaimed = false;
  bool full_series = false;
  for (const StoreSlotDump& slot : snapshot->store) {
    live = live || slot.live;
    reclaimed = reclaimed || (!slot.live && slot.free_rank > 0);
    full_series = full_series || (slot.has_series && !slot.series.samples.empty() &&
                                  slot.series.minima.size() > 1 &&
                                  slot.series.maxima.size() > 1);
  }
  EXPECT_TRUE(live);
  EXPECT_TRUE(reclaimed);
  EXPECT_TRUE(full_series);
  EXPECT_FALSE(snapshot->report_ring.empty());
  EXPECT_FALSE(snapshot->image.empty());

  // The journal continues the snapshot: each patch applies to the image
  // before it, starting from the snapshot's. It holds patch frames and a
  // full frame written because the image's length changed.
  bool full = false;
  bool patch = false;
  bool full_after_resize = false;
  std::string image = snapshot->image;
  for (const JournalFrame& frame : scan.frames) {
    if (frame.image_kind == ImageKind::kPatch) {
      patch = true;
      const Status applied = ApplyImagePatch(frame.image, &image);
      ASSERT_TRUE(applied.ok()) << "frame " << frame.seq << ": " << applied.ToString();
    } else {
      full = true;
      full_after_resize = full_after_resize || frame.image.size() != image.size();
      image = frame.image;
    }
  }
  EXPECT_TRUE(full);
  EXPECT_TRUE(patch);
  EXPECT_TRUE(full_after_resize);

  // CRC-32: the standard check value, then a bitwise reference for every
  // length at every alignment.
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  alignas(16) std::array<char, 2048 + 8> bytes;
  Rng rng(0x0c0ffee);
  for (char& byte : bytes) {
    byte = static_cast<char>(rng.UniformInt(0, 255));
  }
  size_t mismatches = 0;
  for (size_t offset = 0; offset < 8; ++offset) {
    uint32_t state = 0xffffffffu;
    for (size_t len = 0; len <= 2048; ++len) {
      const uint32_t crc = Crc32(std::string_view(bytes.data() + offset, len));
      if (crc != (state ^ 0xffffffffu) && mismatches++ == 0) {
        ADD_FAILURE() << "Crc32 differs from the bitwise reference at offset " << offset
                      << ", length " << len;
      }
      if (len < 2048) {
        state = BitwiseCrc32Step(state, static_cast<uint8_t>(bytes[offset + len]));
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// The engine's encoders (state image, report delta and ring) and the
// manager's commit and snapshot paths write exactly the golden bytes.
TEST(PersistGolden, ScriptedRunWritesTheGoldenFiles) {
  const fs::path dir = RunGoldenScript("golden-run");
  std::vector<fs::path> snaps;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".snap") {
      snaps.push_back(entry.path());
    }
  }
  ASSERT_EQ(snaps.size(), 1u);
  const std::string journal = ReadFile(dir / "journal.wal");
  const std::string golden_journal = ReadFile(CorpusFile("valid_journal_golden.bin"));
  EXPECT_TRUE(journal == golden_journal)
      << (dir / "journal.wal") << " differs from the golden journal at byte "
      << FirstDifference(journal, golden_journal);
  const std::string snap = ReadFile(snaps[0]);
  const std::string golden_snap = ReadFile(CorpusFile("valid_snapshot_golden.bin"));
  EXPECT_TRUE(snap == golden_snap) << snaps[0] << " differs from the golden snapshot at byte "
                                   << FirstDifference(snap, golden_snap);
}

// refused_ogj1_journal_golden.bin is the golden journal as the OGJ1 format
// wrote it, every frame carrying the whole image. The scan names the format
// instead of reporting bad magic.
TEST(PersistGolden, OldFormatJournalIsRefusedByName) {
  const std::string old = ReadFile(CorpusFile("refused_ogj1_journal_golden.bin"));
  ASSERT_GE(old.size(), 4u);
  EXPECT_EQ(old.substr(0, 4), "OGJ1");
  const FrameScan scan = ScanJournal(old);
  EXPECT_TRUE(scan.frames.empty());
  EXPECT_EQ(scan.valid_bytes, 0u);
  EXPECT_EQ(scan.discarded_bytes, old.size());
  EXPECT_EQ(scan.detail, "journal format OGJ1 at offset 0 is not supported (expected OGJ2)");
}

// --- Image patches ---

// A patch's runs as (offset, length) pairs.
using Runs = std::vector<std::pair<uint32_t, uint32_t>>;

Runs PatchRuns(std::string_view patch) {
  Runs runs;
  ByteReader r(patch);
  EXPECT_TRUE(r.U32().ok());  // image length
  auto count = r.U32();
  EXPECT_TRUE(count.ok());
  for (uint32_t i = 0; count.ok() && i < *count; ++i) {
    auto offset = r.U32();
    auto len = r.U32();
    if (!offset.ok() || !len.ok() || !r.Bytes(*len).ok()) {
      ADD_FAILURE() << "malformed patch run " << i;
      break;
    }
    runs.emplace_back(*offset, *len);
  }
  EXPECT_TRUE(r.done());
  return runs;
}

std::string DiffImages(std::string_view base, std::string_view image) {
  std::string patch;
  AppendImagePatch(base, image, &patch);
  return patch;
}

TEST(PersistPatch, PatchesRebuildTheImageAndMergeShortGaps) {
  // Random images and edits, every length from one byte up past a few
  // words: each patch rebuilds its image exactly.
  Rng rng(0x9a7c4);
  for (int round = 0; round < 2000; ++round) {
    const auto n = static_cast<size_t>(rng.UniformInt(1, 80));
    std::string base(n, '\0');
    for (char& byte : base) {
      byte = static_cast<char>(rng.UniformInt(0, 255));
    }
    std::string image = base;
    const int edits = static_cast<int>(rng.UniformInt(0, 6));
    for (int e = 0; e < edits; ++e) {
      const auto at = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
      image[at] = static_cast<char>(image[at] ^ rng.UniformInt(1, 255));
    }
    const std::string patch = DiffImages(base, image);
    std::string rebuilt = base;
    const Status applied = ApplyImagePatch(patch, &rebuilt);
    ASSERT_TRUE(applied.ok()) << "round " << round << ": " << applied.ToString();
    ASSERT_TRUE(rebuilt == image) << "round " << round;
    // Each run starts and ends at a changed byte, and runs are at least a
    // run header (8 bytes) apart.
    size_t end = 0;
    for (const auto& [offset, len] : PatchRuns(patch)) {
      ASSERT_GT(len, 0u) << "round " << round;
      EXPECT_NE(base[offset], image[offset]) << "round " << round;
      EXPECT_NE(base[offset + len - 1], image[offset + len - 1]) << "round " << round;
      EXPECT_TRUE(end == 0 || offset - end >= 8) << "round " << round;
      end = offset + len;
    }
  }

  const std::string base(37, 'a');  // not a whole number of words
  auto edited = [&](std::initializer_list<size_t> at) {
    std::string image = base;
    for (size_t i : at) {
      image[i] = 'b';
    }
    return image;
  };
  // Nothing changed: a header and no runs.
  EXPECT_EQ(DiffImages(base, base).size(), 8u);
  EXPECT_EQ(PatchRuns(DiffImages(base, base)), Runs{});
  // Runs are trimmed to the bytes that differ, within a word and across
  // a word boundary.
  EXPECT_EQ(PatchRuns(DiffImages(base, edited({3}))), (Runs{{3, 1}}));
  EXPECT_EQ(PatchRuns(DiffImages(base, edited({7, 8}))), (Runs{{7, 2}}));
  // Fewer equal bytes than a run header (8) between two changes: one run
  // carries them; eight or more: two runs.
  EXPECT_EQ(PatchRuns(DiffImages(base, edited({3, 10}))), (Runs{{3, 8}}));
  EXPECT_EQ(PatchRuns(DiffImages(base, edited({3, 12}))), (Runs{{3, 1}, {12, 1}}));
  // The tail shorter than a word is compared too.
  EXPECT_EQ(PatchRuns(DiffImages(base, edited({33, 36}))), (Runs{{33, 4}}));
  EXPECT_EQ(PatchRuns(DiffImages(base, edited({0, 36}))), (Runs{{0, 1}, {36, 1}}));
}

TEST(PersistPatch, PatchesThatCannotApplyAreRefused) {
  const std::string base = "0123456789abcdefghij";  // 20 bytes
  std::string image = base;
  image[5] = 'X';
  const std::string patch = DiffImages(base, image);
  std::string applied = base;
  ASSERT_TRUE(ApplyImagePatch(patch, &applied).ok());
  EXPECT_EQ(applied, image);

  // The refusal, if any; a refused patch writes no byte.
  auto refusal = [](std::string_view with, std::string_view bytes) {
    std::string target(with);
    const Status status = ApplyImagePatch(bytes, &target);
    EXPECT_TRUE(status.ok() || target == with) << status.message();
    return status.ok() ? std::string("applied") : status.message();
  };
  EXPECT_EQ(refusal("", patch), "image patch has no base image");
  EXPECT_EQ(refusal(std::string_view(base).substr(0, 19), patch),
            "image patch is for a 20-byte image, the base image has 19 bytes");
  std::string past;
  ByteWriter w(&past);
  w.U32(20);
  w.U32(1);
  w.U32(18);
  w.U32(3);
  w.Raw("xyz");
  EXPECT_EQ(refusal(base, past),
            "image patch run 0 (3 bytes at offset 18) runs past the end of the 20-byte image");
  std::string trailing = patch;
  trailing.push_back('!');
  EXPECT_EQ(refusal(base, trailing), "trailing garbage: 1 bytes past the image patch");
  // A run past the end of the patch: every proper prefix is refused.
  for (size_t cut = 0; cut < patch.size(); ++cut) {
    EXPECT_NE(refusal(base, std::string_view(patch).substr(0, cut)), "applied") << "cut " << cut;
  }
}

// One self-contained engine run: store + engine + persist manager over `dir`.
// The engine observes its store, so store writes are journaled and reach
// its ONCHANGE triggers as in a kernel.
struct DiffRun {
  FeatureStore store;
  PolicyRegistry registry;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<PersistManager> persist;
};

std::unique_ptr<DiffRun> StartEngineRun(const fs::path& dir, const char* spec,
                                        const EngineOptions& engine_options,
                                        ChaosEngine* chaos) {
  auto run = std::make_unique<DiffRun>();
  run->engine =
      std::make_unique<Engine>(&run->store, &run->registry, nullptr, engine_options);
  PersistOptions options;
  options.dir = dir.string();
  run->persist = std::make_unique<PersistManager>(options);
  if (chaos != nullptr) {
    run->persist->SetChaos(chaos);
  }
  // SetPersist before LoadSource so the spec's persist block configures the
  // manager; Restore/Open is the caller's choice (fresh start vs recovery).
  run->engine->SetPersist(run->persist.get());
  EXPECT_TRUE(run->engine->LoadSource(spec).ok());
  return run;
}

// --- Golden image ---
//
// tests/corpus/valid_image_golden.bin pins the engine image with every
// section non-default. The journal golden above cannot: its run has no
// governor, no health block, no retention block and no RETRAIN, so those
// sections encode as zeros there and two swapped fields would move no byte.
// This run leaves the governor below full service with transitions, sheds
// and published keys, a supervised monitor with recorded flips, two spec
// namespaces with published gauges, a queued and a throttled retrain
// request, a live timer, and reports of three kinds. The file was written
// once, before the image layout moved into per-section field lists, and is
// never regenerated: a test that fails here means the layout changed.

constexpr char kImageGoldenSpec[] = R"(
guardrail crit-gate {
  trigger: { FUNCTION(hot) },
  rule: { LOAD_OR(sys.pressure, 0) <= 50 },
  action: { SAVE(ctl.safe_mode, true); REPORT("static default") },
  meta: { severity = critical, criticality = critical }
}
guardrail std-watch {
  trigger: { FUNCTION(hot) },
  rule: { LOAD_OR(sys.pressure, 0) <= 60 },
  action: { REPORT() }
}
guardrail be-watch {
  trigger: { FUNCTION(hot) },
  rule: { LOAD_OR(sys.load, 0) <= 70 },
  action: { REPORT() },
  meta: { criticality = besteffort }
}
guardrail flapper {
  trigger: { TIMER(20ms, 20ms) },
  rule: { LOAD_OR(flap.x, 0) <= 5 },
  action: { RETRAIN(io_model, tmp.window); REPORT("flap", LOAD_OR(flap.x, 0)) },
  on_satisfy: { SAVE(cache.ok, true) },
  health: { flap_window = 10s, flap_threshold = 100 }
}
retention {
  scan_chunk = 8
  namespace "tmp." { max_keys = 8, idle_ttl = 5s }
  namespace "cache." { max_keys = 3 }
}
persist { interval = 10s, journal_budget = 0 }
)";

EngineOptions ImageGoldenOptions() {
  EngineOptions options;
  options.governor.enabled = true;
  options.governor.pressure_up = 5000.0;
  options.governor.pressure_down = 500.0;
  options.governor.dwell_up = 2;
  options.governor.dwell_down = 3;
  options.governor.sample_every = 3;
  options.governor.alpha = 0.5;
  return options;
}

std::unique_ptr<DiffRun> StartImageRun(const fs::path& dir) {
  return StartEngineRun(dir, kImageGoldenSpec, ImageGoldenOptions(), nullptr);
}

// The scripted run: the supervised timer monitor violates, recovers and
// violates again (three flips; RETRAIN accepted, then throttled), the two
// spec namespaces fill (cache. past its budget), and a callout storm ends
// it with the governor mid-degradation. The last callout commits a frame,
// so the journal's newest image is the run's final image.
void DriveImageGoldenRun(DiffRun& run) {
  Engine& engine = *run.engine;
  FeatureStore& store = run.store;
  store.Save("tmp.a", Value(int64_t{1}));
  store.Save("tmp.b", Value("tmp-b"));
  store.Save("flap.x", Value(int64_t{9}));
  engine.AdvanceTo(Milliseconds(30));
  store.Save("flap.x", Value(int64_t{1}));
  for (int i = 0; i < 5; ++i) {
    store.Save(Numbered("cache.k", static_cast<uint64_t>(i)),
               Value(static_cast<double>(i) * 0.5));
  }
  engine.AdvanceTo(Milliseconds(70));
  store.Save("flap.x", Value(int64_t{8}));
  store.Save("tmp.c", Value(true));
  engine.AdvanceTo(Milliseconds(110));
  for (int i = 0; i < 18; ++i) {
    const SimTime t = Milliseconds(111) + Microseconds(100) * i;
    engine.AdvanceTo(t);
    store.Save("sys.pressure", Value(int64_t{80}));
    store.Save("sys.load", Value(int64_t{90 + i}));
    engine.OnFunctionCall("hot", t);
  }
}

int64_t StoreInt(FeatureStore& store, const std::string& key) {
  auto value = store.Load(key);
  return value.ok() ? static_cast<int64_t>(value.value().NumericOr(0)) : 0;
}

TEST(PersistGolden, ImageCoversEverySectionAndRestoresByteIdentically) {
  const fs::path dir = FreshTestDir("image-golden");
  const std::string golden = ReadFile(CorpusFile("valid_image_golden.bin"));
  {
    auto run = StartImageRun(dir);
    ASSERT_TRUE(run->persist->Open().ok());
    DriveImageGoldenRun(*run);
    Engine& engine = *run->engine;
    const std::string image = engine.EncodeImage();
    WriteFile(dir / "image.bin", image);
    // (a) The run encodes exactly the golden bytes.
    EXPECT_TRUE(image == golden) << "the engine image layout changed: " << (dir / "image.bin")
                                 << " differs from the golden image at byte "
                                 << FirstDifference(image, golden) << " of " << golden.size();

    // (c) What the golden covers, so no section of it encodes as defaults.
    const OverloadGovernor& governor = engine.governor();
    EXPECT_NE(governor.mode(), GovernorMode::kFull);
    EXPECT_GT(governor.stats().transitions, 0u);
    EXPECT_GT(governor.stats().sheds_besteffort + governor.stats().sheds_standard +
                  governor.stats().static_suppressed,
              0u);
    EXPECT_GT(StoreInt(run->store, "engine.governor.transitions"), 0);
    EXPECT_GT(StoreInt(run->store, "engine.governor.sheds"), 0);
    const GuardHealth* guard = engine.supervisor().Find("flapper");
    ASSERT_NE(guard, nullptr);
    EXPECT_GE(guard->flips.size(), 1u);
    EXPECT_GT(guard->evals, 0u);
    for (const char* ns : {"tmp.", "cache."}) {
      EXPECT_GT(StoreInt(run->store, std::string("engine.store.keys.") + ns), 0) << ns;
      EXPECT_GT(StoreInt(run->store, std::string("engine.store.bytes.") + ns), 0) << ns;
    }
    EXPECT_GE(engine.retrain_queue().depth(), 1u);
    EXPECT_GE(engine.retrain_queue().stats().throttled, 1u);
    EXPECT_GE(engine.reporter().CountOfKind(ReportKind::kViolation), 1u);
    EXPECT_GE(engine.reporter().CountOfKind(ReportKind::kActionPayload), 1u);
    EXPECT_GE(engine.reporter().CountOfKind(ReportKind::kSatisfied), 1u);
    EXPECT_TRUE(engine.NextTimerDeadline().has_value());
    // Crash: only what reached the journal survives.
  }
  // (b) A fresh engine with the same spec and options, restored from the
  // run's journal, encodes the same bytes.
  auto restored = StartImageRun(dir);
  auto recovered = restored->engine->Restore(*restored->persist);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered.value().cold_start);
  const std::string reencoded = restored->engine->EncodeImage();
  EXPECT_TRUE(reencoded == golden) << "the restored image differs from the golden image at byte "
                                   << FirstDifference(reencoded, golden) << " of "
                                   << golden.size();
}

// --- Differential crash/replay harness ---

// The spec drives three trigger kinds (TIMER / ONCHANGE), window aggregates,
// the violation protocol (hysteresis + cooldown + on_satisfy), the
// supervisor (health block), and the persist DSL surface itself.
constexpr char kDiffSpec[] = R"(
guardrail lat-p99 {
  trigger: { TIMER(100ms, 40ms) },
  rule: { COUNT(io.lat, 400ms) == 0 || P99(io.lat, 400ms) <= 5ms },
  action: { SAVE(lat.flag, true); REPORT("p99 high", MEAN(io.lat, 400ms)) },
  on_satisfy: { SAVE(lat.flag, false) },
  meta: { severity = warning, cooldown = 120ms, hysteresis = 2 }
}
guardrail err-watch {
  trigger: { TIMER(60ms, 30ms), ONCHANGE(err.rate) },
  rule: { LOAD_OR(err.rate, 0) <= 0.5 },
  action: { INCR(err.trips); REPORT("err rate tripped") },
  meta: { hysteresis = 1 }
}
guardrail supervised-probe {
  trigger: { TIMER(80ms, 80ms) },
  rule: { LOAD_OR(probe.value, 0) <= 40 },
  action: { SAVE(probe.flag, true) },
  health: {
    budget_steps = 4096, flap_window = 500ms, flap_threshold = 3,
    quarantine = 2, probe_every = 2, reinstate = 2
  }
}
persist { interval = 250ms, journal_budget = 4096 }
)";

constexpr Duration kStepWindow = Milliseconds(50);

std::unique_ptr<DiffRun> StartRun(const fs::path& dir, ChaosEngine* chaos) {
  return StartEngineRun(dir, kDiffSpec, EngineOptions{}, chaos);
}

// One deterministic workload step. Everything is derived from (seed, step),
// so re-executing a step after recovery replays the exact same transitions.
// Each step ends with AdvanceTo — the commit boundary — so the journal
// sequence observed after step i identifies the resume point exactly.
void RunStep(DiffRun& run, uint64_t seed, int step) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(step) + 1);
  const SimTime start = static_cast<SimTime>(step) * kStepWindow;
  const int observations = static_cast<int>(rng.UniformInt(0, 4));
  for (int i = 0; i < observations; ++i) {
    const SimTime t = start + rng.UniformInt(1, kStepWindow - 1);
    const double sample =
        rng.Bernoulli(0.2) ? rng.Uniform(5.0e6, 2.0e7) : rng.Uniform(1.0e5, 4.0e6);
    run.store.Observe("io.lat", t, sample);
  }
  if (rng.Bernoulli(0.4)) {
    run.store.Save("err.rate", Value(rng.Uniform(0.0, 1.0)));
  }
  if (rng.Bernoulli(0.3)) {
    run.store.Save("probe.value", Value(rng.Uniform(0.0, 80.0)));
  }
  if (rng.Bernoulli(0.15)) {
    run.store.Increment("step.counter", 1.0);
  }
  if (rng.Bernoulli(0.05)) {
    (void)run.store.Erase("lat.flag");
  }
  if (rng.Bernoulli(0.05)) {
    SeriesOptions options;
    options.max_samples = static_cast<size_t>(rng.UniformInt(16, 64));
    options.max_age = Milliseconds(rng.UniformInt(100, 1000));
    run.store.SetSeriesOptions("io.lat", options);
  }
  run.engine->AdvanceTo(start + kStepWindow);
}

// The full observable state, wire-encoded: feature store (scalar + series
// internals), report ring, and the engine's state image. Two runs are
// equivalent iff these bytes match.
std::string Fingerprint(DiffRun& run) {
  Snapshot snapshot;
  snapshot.store = run.store.DumpSlots();
  snapshot.report_ring = run.engine->EncodeReportRing();
  snapshot.image = run.engine->EncodeImage();
  return EncodeSnapshot(snapshot);
}

// Runs `total_steps` uninterrupted and returns the final fingerprint.
std::string ReferenceFingerprint(const fs::path& dir, uint64_t seed, int total_steps) {
  auto run = StartRun(dir, nullptr);
  EXPECT_TRUE(run->persist->Open().ok());
  for (int step = 0; step < total_steps; ++step) {
    RunStep(*run, seed, step);
  }
  return Fingerprint(*run);
}

// Crash at `crash_step`, recover, re-execute from the recovered sequence
// number, and return the final fingerprint (plus recovery info via out-param).
std::string CrashedFingerprint(const fs::path& dir, uint64_t seed, int total_steps,
                               int crash_step, ChaosEngine* chaos, RecoveryInfo* info_out) {
  std::vector<uint64_t> seq_after(static_cast<size_t>(crash_step), 0);
  {
    auto run = StartRun(dir, chaos);
    EXPECT_TRUE(run->persist->Open().ok());
    for (int step = 0; step < crash_step; ++step) {
      RunStep(*run, seed, step);
      seq_after[static_cast<size_t>(step)] = run->persist->last_committed_seq();
    }
    // Crash: the run is abandoned here. Only what reached the files survives.
  }
  auto run = StartRun(dir, chaos);
  auto recovered = run->engine->Restore(*run->persist);
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
  if (!recovered.ok()) {
    return "";
  }
  const RecoveryInfo info = recovered.value();
  if (info_out != nullptr) {
    *info_out = info;
  }
  // Resume point: the first step whose end-of-step sequence matches the
  // recovered sequence. Later steps with the same sequence were no-ops
  // (nothing committed), so re-executing them is safe and necessary — they
  // advance the clock to the reference timeline.
  int resume = 0;
  if (info.last_seq != 0) {
    resume = -1;
    for (int step = 0; step < crash_step; ++step) {
      if (seq_after[static_cast<size_t>(step)] == info.last_seq) {
        resume = step + 1;
        break;
      }
    }
    EXPECT_NE(resume, -1) << "recovered seq " << info.last_seq
                          << " matches no commit boundary (seed " << seed << ")";
    if (resume == -1) {
      return "";
    }
  }
  for (int step = resume; step < total_steps; ++step) {
    RunStep(*run, seed, step);
  }
  return Fingerprint(*run);
}

TEST(PersistDifferential, CrashReplayIsBitIdenticalOver1000Seeds) {
  const uint64_t base = SeedBase();
  constexpr int kTotalSteps = 16;
  const fs::path root = FreshTestDir("diff-clean");
  for (uint64_t i = 0; i < 1000; ++i) {
    const uint64_t seed = base * 1000 + i;
    Rng rng(seed ^ 0xD1F7ull);
    const int crash_step = static_cast<int>(rng.UniformInt(1, kTotalSteps));
    const fs::path ref_dir = root / Numbered("ref-", i);
    const fs::path crash_dir = root / Numbered("crash-", i);
    fs::create_directories(ref_dir);
    fs::create_directories(crash_dir);
    const std::string reference = ReferenceFingerprint(ref_dir, seed, kTotalSteps);
    RecoveryInfo info;
    const std::string crashed =
        CrashedFingerprint(crash_dir, seed, kTotalSteps, crash_step, nullptr, &info);
    ASSERT_EQ(crashed.size(), reference.size())
        << "seed " << seed << " crash_step " << crash_step << ": " << info.detail;
    ASSERT_EQ(crashed, reference)
        << "seed " << seed << " crash_step " << crash_step << ": " << info.detail;
    // Keep the temp tree small: done with this seed's directories.
    fs::remove_all(ref_dir);
    fs::remove_all(crash_dir);
  }
}

TEST(PersistDifferential, CrashReplaySurvivesPersistChaos) {
  // Same differential, but the persist chaos sites damage the files the
  // whole way: torn appends, CRC bit flips, chopped tails, aborted
  // snapshots. Damage costs recovery point (more steps re-executed), never
  // correctness — the final state must still match bit-for-bit.
  const uint64_t base = SeedBase();
  constexpr int kTotalSteps = 16;
  const fs::path root = FreshTestDir("diff-chaos");
  uint64_t damaged_runs = 0;
  for (uint64_t i = 0; i < 200; ++i) {
    const uint64_t seed = base * 1000 + i;
    Rng rng(seed ^ 0xC405ull);
    const int crash_step = static_cast<int>(rng.UniformInt(1, kTotalSteps));

    ChaosEngine chaos(seed);
    FaultPlanConfig torn;
    torn.mode = FaultMode::kBernoulli;
    torn.p = 0.15;
    torn.value = 0.25 + 0.5 * rng.NextDouble();  // fraction of the frame that lands
    ASSERT_TRUE(chaos.Arm(kChaosSitePersistTornWrite, torn).ok());
    FaultPlanConfig flip;
    flip.mode = FaultMode::kBernoulli;
    flip.p = 0.1;
    ASSERT_TRUE(chaos.Arm(kChaosSitePersistCrcCorrupt, flip).ok());
    FaultPlanConfig chop;
    chop.mode = FaultMode::kBernoulli;
    chop.p = 0.1;
    chop.value = 0.5;
    ASSERT_TRUE(chaos.Arm(kChaosSitePersistTruncateTail, chop).ok());
    FaultPlanConfig snap_fail;
    snap_fail.mode = FaultMode::kBernoulli;
    snap_fail.p = 0.3;
    ASSERT_TRUE(chaos.Arm(kChaosSitePersistSnapshotFail, snap_fail).ok());

    const fs::path ref_dir = root / Numbered("ref-", i);
    const fs::path crash_dir = root / Numbered("crash-", i);
    fs::create_directories(ref_dir);
    fs::create_directories(crash_dir);
    const std::string reference = ReferenceFingerprint(ref_dir, seed, kTotalSteps);
    RecoveryInfo info;
    const std::string crashed =
        CrashedFingerprint(crash_dir, seed, kTotalSteps, crash_step, &chaos, &info);
    ASSERT_EQ(crashed, reference)
        << "seed " << seed << " crash_step " << crash_step << ": " << info.detail;
    damaged_runs += (info.bytes_discarded > 0 || info.snapshots_rejected > 0 ||
                     info.frames_discarded > 0)
                        ? 1
                        : 0;
    fs::remove_all(ref_dir);
    fs::remove_all(crash_dir);
  }
  // The chaos plan is not vacuous: a decent share of recoveries actually had
  // to climb down the ladder.
  EXPECT_GT(damaged_runs, 20u);
}

// --- Recovery ladder ---

TEST(PersistRecovery, FallsBackToPreviousSnapshotAndColdStart) {
  const fs::path dir = FreshTestDir("ladder");
  // Produce a run with at least two snapshots (tight interval + budget).
  {
    auto run = StartRun(dir, nullptr);
    ASSERT_TRUE(run->persist->Open().ok());
    for (int step = 0; step < 40; ++step) {
      RunStep(*run, 7, step);
    }
    ASSERT_GE(run->persist->stats().snapshots_written, 2u);
  }
  // Baseline recovery: usable snapshot, no damage.
  {
    auto run = StartRun(dir, nullptr);
    auto recovered = run->engine->Restore(*run->persist);
    ASSERT_TRUE(recovered.ok());
    EXPECT_FALSE(recovered.value().cold_start);
    EXPECT_TRUE(recovered.value().used_snapshot);
    EXPECT_FALSE(recovered.value().used_previous_snapshot);
  }
  // Corrupt the newest snapshot: recovery must step down to the previous one.
  std::vector<fs::path> snapshots;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".snap") {
      snapshots.push_back(entry.path());
    }
  }
  ASSERT_GE(snapshots.size(), 2u);
  std::sort(snapshots.begin(), snapshots.end());
  {
    std::string bytes = ReadFile(snapshots.back());
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
    WriteFile(snapshots.back(), bytes);
  }
  {
    auto run = StartRun(dir, nullptr);
    auto recovered = run->engine->Restore(*run->persist);
    ASSERT_TRUE(recovered.ok());
    EXPECT_FALSE(recovered.value().cold_start);
    EXPECT_TRUE(recovered.value().used_previous_snapshot);
    EXPECT_GE(recovered.value().snapshots_rejected, 1u);
  }
  // Destroy everything: recovery must degrade to a cold start, not fail.
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::string bytes = ReadFile(entry.path());
    for (size_t at = 0; at < bytes.size(); at += 2) {
      bytes[at] = static_cast<char>(~bytes[at]);
    }
    WriteFile(entry.path(), bytes);
  }
  {
    auto run = StartRun(dir, nullptr);
    auto recovered = run->engine->Restore(*run->persist);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_TRUE(recovered.value().cold_start);
    // A cold-started engine keeps working.
    for (int step = 0; step < 4; ++step) {
      RunStep(*run, 7, step);
    }
  }
}

TEST(PersistRecovery, ArbitraryFileDamageNeverCrashesRecovery) {
  const uint64_t base = SeedBase();
  const fs::path root = FreshTestDir("damage-sweep");
  for (uint64_t i = 0; i < 50; ++i) {
    const uint64_t seed = base + i;
    const fs::path dir = root / std::to_string(i);
    fs::create_directories(dir);
    {
      auto run = StartRun(dir, nullptr);
      ASSERT_TRUE(run->persist->Open().ok());
      for (int step = 0; step < 12; ++step) {
        RunStep(*run, seed, step);
      }
    }
    // Randomly damage every persist file: flips, truncations, garbage
    // prepends. Recovery must always return cleanly and the recovered
    // engine must keep running.
    Rng rng(seed ^ 0xDA11ull);
    for (const auto& entry : fs::directory_iterator(dir)) {
      std::string bytes = ReadFile(entry.path());
      switch (rng.UniformInt(0, 3)) {
        case 0:
          if (!bytes.empty()) {
            const size_t at = static_cast<size_t>(
                rng.UniformInt(0, static_cast<int64_t>(bytes.size()) - 1));
            bytes[at] = static_cast<char>(bytes[at] ^ (1u << rng.UniformInt(0, 7)));
          }
          break;
        case 1:
          bytes = bytes.substr(0, bytes.size() / 2);
          break;
        case 2:
          bytes = std::string("garbage") + bytes;
          break;
        default:
          break;  // leave this file intact
      }
      WriteFile(entry.path(), bytes);
    }
    auto run = StartRun(dir, nullptr);
    auto recovered = run->engine->Restore(*run->persist);
    ASSERT_TRUE(recovered.ok()) << "seed " << seed << ": " << recovered.status().ToString();
    for (int step = 0; step < 4; ++step) {
      RunStep(*run, seed, step);
    }
    fs::remove_all(dir);
  }
}

// Every journal written before the image format last changed carries an
// older version stamp. Recovery refuses such an image with an error naming
// both versions rather than misreading its fields.
TEST(PersistRecovery, ImageFromAnOlderVersionIsRefused) {
  const fs::path dir = FreshTestDir("old-image");
  {
    auto run = StartRun(dir, nullptr);
    ASSERT_TRUE(run->persist->Open().ok());
    for (int step = 0; step < 4; ++step) {
      RunStep(*run, 7, step);
    }
    // The newest frame's image wins at recovery: restamp a current image
    // with version 3 and commit it last.
    const std::string image = run->engine->EncodeImage();
    std::string stamped;
    ByteWriter w(&stamped);
    w.U32(3);
    w.Raw(std::string_view(image).substr(4));
    const uint64_t frames = run->persist->stats().frames_committed;
    run->persist->MarkDirty();
    ASSERT_TRUE(run->persist->CommitFrame(run->engine->now(), "", stamped).ok());
    ASSERT_EQ(run->persist->stats().frames_committed, frames + 1);
  }
  auto run = StartRun(dir, nullptr);
  auto recovered = run->engine->Restore(*run->persist);
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.status().message().find(
                "image version 3 is not supported (expected 5)"),
            std::string::npos)
      << recovered.status().ToString();
}

// Without a retention block the image ends with the retention section's
// namespace count, zero. A frame with a valid CRC whose count claims
// 2^32 - 1 namespaces is refused with a named error before anything is
// allocated for it.
TEST(PersistRecovery, ImageWithAnOversizedNamespaceCountIsRefused) {
  const fs::path dir = FreshTestDir("ns-count");
  {
    auto run = StartRun(dir, nullptr);
    ASSERT_TRUE(run->persist->Open().ok());
    for (int step = 0; step < 4; ++step) {
      RunStep(*run, 7, step);
    }
    ASSERT_FALSE(run->engine->retention().enabled());
    std::string image = run->engine->EncodeImage();
    ASSERT_GE(image.size(), 4u);
    ASSERT_EQ(image.substr(image.size() - 4), std::string(4, '\0'));
    std::fill(image.end() - 4, image.end(), '\xff');
    run->persist->MarkDirty();
    ASSERT_TRUE(run->persist->CommitFrame(run->engine->now(), "", image).ok());
  }
  auto run = StartRun(dir, nullptr);
  auto recovered = run->engine->Restore(*run->persist);
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.status().message().find(
                "image: retention namespace count 4294967295 exceeds input"),
            std::string::npos)
      << recovered.status().ToString();
}

// Writes `journal` plus one frame carrying `image` after its last frame into
// dir/journal.wal, then restores a fresh golden-image engine from `dir`.
Result<RecoveryInfo> RestoreWithNewestImage(const fs::path& dir, const std::string& journal,
                                            const JournalFrame& last, std::string_view image) {
  JournalFrame frame;
  frame.seq = last.seq + 1;
  frame.now = last.now;
  frame.image = std::string(image);
  std::string bytes = journal;
  AppendFrame(frame, &bytes);
  WriteFile(dir / "journal.wal", bytes);
  auto run = StartImageRun(dir);
  return run->engine->Restore(*run->persist);
}

// Every non-empty proper prefix of the golden image, and the image with one
// trailing byte, committed as the newest frame, is refused; the intact
// image, committed the same way, restores. (An empty image is how a frame
// says it carries none: recovery then keeps the previous frame's image, so
// the empty prefix is not a damaged image.)
TEST(PersistRecovery, EveryTruncationOfTheGoldenImageIsRefused) {
  const std::string golden = ReadFile(CorpusFile("valid_image_golden.bin"));
  ASSERT_FALSE(golden.empty());
  const fs::path dir = FreshTestDir("image-sweep");
  {
    auto run = StartImageRun(dir);
    ASSERT_TRUE(run->persist->Open().ok());
    DriveImageGoldenRun(*run);
  }
  const std::string journal = ReadFile(dir / "journal.wal");
  const FrameScan scan = ScanJournal(journal);
  ASSERT_FALSE(scan.frames.empty());
  const JournalFrame& last = scan.frames.back();
  std::string padded(golden.size() + 1, '\0');
  std::copy(golden.begin(), golden.end(), padded.begin());
  size_t wrong = 0;
  for (size_t n = 1; n <= padded.size(); ++n) {
    const auto recovered =
        RestoreWithNewestImage(dir, journal, last, std::string_view(padded).substr(0, n));
    if (recovered.ok() != (n == golden.size()) && wrong++ < 3) {
      ADD_FAILURE() << "the " << n << "-byte image (golden: " << golden.size()
                    << " bytes) restored: " << recovered.ok() << " "
                    << recovered.status().ToString();
    }
  }
  EXPECT_EQ(wrong, 0u);
}

// A 64-byte image whose bytes depend on `step`: a few change per step.
std::string SteppedImage(uint64_t step, size_t size = 64) {
  std::string image(size, 'i');
  PutU64(image.data(), step);
  image[size / 2] = static_cast<char>('a' + step % 7);
  return image;
}

// `image` with the byte at `at` changed.
std::string Nudged(std::string image, size_t at) {
  image[at] = static_cast<char>(image[at] + 1);
  return image;
}

// Commits `image` as the next frame.
void CommitImage(PersistManager& persist, SimTime now, const std::string& image) {
  persist.MarkDirty();
  EXPECT_TRUE(persist.CommitFrame(now, "", image).ok());
}

// The manager journals an image as a patch against the last committed one,
// and in full when there is none, when its length changed, or when the
// patch would not be smaller. A snapshot's image is the base of the next
// patch. Recovery rebuilds the image each frame committed: from the journal
// cut at that frame's end, it recovers exactly that image.
TEST(PersistRecovery, PatchFramesRebuildEveryCommittedImage) {
  const fs::path root = FreshTestDir("patch-frames");
  const fs::path dir = root / "journaled";
  PersistOptions options;
  options.dir = dir.string();
  options.snapshot_interval = 0;
  options.journal_budget = 0;
  std::vector<std::string> committed;
  {
    PersistManager persist(options);
    ASSERT_TRUE(persist.Open().ok());
    for (uint64_t step = 1; step <= 3; ++step) {
      committed.push_back(SteppedImage(step));
      CommitImage(persist, Milliseconds(step), committed.back());
    }
    const FrameScan before = ScanJournal(ReadFile(dir / "journal.wal"));
    ASSERT_EQ(before.frames.size(), 3u);
    EXPECT_EQ(before.frames[0].image_kind, ImageKind::kFull);  // no previous image
    EXPECT_EQ(before.frames[1].image_kind, ImageKind::kPatch);
    EXPECT_EQ(before.frames[2].image_kind, ImageKind::kPatch);
    EXPECT_LT(before.frames[1].image.size(), committed[1].size());

    // The snapshot carries an image no frame did, with a byte the next
    // image does not change; the next patch is taken against it.
    const std::string snapshot_image = Nudged(committed.back(), 50);
    ASSERT_TRUE(persist.WriteSnapshot(Milliseconds(3), {}, "", snapshot_image).ok());
    committed.push_back(SteppedImage(4));
    CommitImage(persist, Milliseconds(4), committed.back());  // patch on the snapshot's
    committed.push_back(SteppedImage(5, 72));
    CommitImage(persist, Milliseconds(5), committed.back());  // length changed
    std::string flipped = committed.back();
    for (char& byte : flipped) {
      byte = static_cast<char>(~byte);
    }
    committed.push_back(flipped);
    CommitImage(persist, Milliseconds(6), committed.back());  // patch not smaller
    committed.push_back(Nudged(flipped, 0));
    CommitImage(persist, Milliseconds(7), committed.back());
  }
  const FrameScan scan = ScanJournal(ReadFile(dir / "journal.wal"));
  ASSERT_EQ(scan.frames.size(), 4u);
  std::vector<ImageKind> kinds;
  for (const JournalFrame& frame : scan.frames) {
    kinds.push_back(frame.image_kind);
  }
  EXPECT_EQ(kinds, (std::vector<ImageKind>{ImageKind::kPatch, ImageKind::kFull,
                                           ImageKind::kFull, ImageKind::kPatch}));

  for (size_t i = 0; i < scan.frames.size(); ++i) {
    const fs::path cut = root / ("cut-" + std::to_string(i));
    fs::copy(dir, cut);
    fs::resize_file(cut / "journal.wal", scan.frame_ends[i]);
    PersistOptions cut_options = options;
    cut_options.dir = cut.string();
    auto recovered = PersistManager(cut_options).LoadForRecovery();
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered->base.seq, 3u);
    EXPECT_EQ(recovered->frames.size(), i + 1);
    EXPECT_TRUE(recovered->image == committed[3 + i]) << "frame " << 4 + i;
  }
  PersistManager persist(options);
  auto recovered = persist.LoadForRecovery();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered->frames.size(), 4u);
  EXPECT_TRUE(recovered->image == committed.back());
  // The manager continues from the rebuilt final image.
  ASSERT_TRUE(persist.Open().ok());
  committed.push_back(Nudged(committed.back(), 40));
  CommitImage(persist, Milliseconds(8), committed.back());
  auto again = PersistManager(options).LoadForRecovery();
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->frames.size(), 5u);
  EXPECT_EQ(ScanJournal(ReadFile(dir / "journal.wal")).frames.back().image_kind,
            ImageKind::kPatch);
  EXPECT_TRUE(again->image == committed.back());
}

// A patch that cannot apply is damage, like a CRC mismatch. Over a journal
// whose CRCs all hold, with such a patch in its third frame, recovery ends
// at the second frame, truncates the file there and says why, and the next
// commit continues the sequence from there.
TEST(PersistRecovery, PatchThatCannotApplyEndsTheUsableSuffix) {
  const fs::path root = FreshTestDir("bad-patch");
  PersistOptions options;
  options.dir = (root / "written").string();
  options.snapshot_interval = 0;
  options.journal_budget = 0;
  {
    PersistManager persist(options);
    ASSERT_TRUE(persist.Open().ok());
    for (uint64_t step = 1; step <= 5; ++step) {
      CommitImage(persist, Milliseconds(step), SteppedImage(step));
    }
  }
  const FrameScan written = ScanJournal(ReadFile(root / "written" / "journal.wal"));
  ASSERT_EQ(written.frames.size(), 5u);
  ASSERT_EQ(written.frames[2].image_kind, ImageKind::kPatch);

  std::string past_the_end;
  ByteWriter w(&past_the_end);
  w.U32(64);
  w.U32(1);
  w.U32(60);
  w.U32(8);
  w.Raw("12345678");
  const struct {
    const char* name;
    std::function<void(std::vector<JournalFrame>&)> damage;
    const char* why;
  } cases[] = {
      {"no-base",
       [](std::vector<JournalFrame>& frames) {
         frames[1].image_kind = ImageKind::kFull;
         frames[1].image.clear();
       },
       "image patch has no base image"},
      {"wrong-length",
       [](std::vector<JournalFrame>& frames) { PutU32(frames[2].image.data(), 65); },
       "image patch is for a 65-byte image, the base image has 64 bytes"},
      {"past-the-end",
       [&](std::vector<JournalFrame>& frames) { frames[2].image = past_the_end; },
       "image patch run 0 (8 bytes at offset 60) runs past the end of the 64-byte image"},
      {"trailing",
       [](std::vector<JournalFrame>& frames) { frames[2].image.push_back('\0'); },
       "trailing garbage: 1 bytes past the image patch"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<JournalFrame> frames = written.frames;
    c.damage(frames);
    std::string journal;
    std::vector<size_t> ends;
    for (const JournalFrame& frame : frames) {
      AppendFrame(frame, &journal);
      ends.push_back(journal.size());
    }
    ASSERT_EQ(ScanJournal(journal).frames.size(), 5u);  // every CRC holds
    const fs::path dir = root / c.name;
    fs::create_directories(dir);
    WriteFile(dir / "journal.wal", journal);

    options.dir = dir.string();
    PersistManager persist(options);
    auto recovered = persist.LoadForRecovery();
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    const RecoveryInfo& info = recovered->info;
    EXPECT_EQ(info.last_seq, 2u);
    EXPECT_EQ(info.frames_replayed, 2u);
    EXPECT_EQ(info.frames_discarded, 3u);
    EXPECT_NE(info.detail.find(std::string("frame 3 cannot apply its image patch: ") + c.why),
              std::string::npos)
        << info.detail;
    EXPECT_EQ(fs::file_size(dir / "journal.wal"), ends[1]);
    // The refused patch wrote nothing: the image is the second frame's.
    const std::string second =
        frames[1].image_kind == ImageKind::kFull ? frames[1].image : SteppedImage(2);
    EXPECT_TRUE(recovered->image == second);

    // The sequence continues at 3, on top of the second frame's image.
    ASSERT_TRUE(persist.Open().ok());
    const std::string next = SteppedImage(3);
    CommitImage(persist, Milliseconds(3), next);
    EXPECT_EQ(persist.last_committed_seq(), 3u);
    auto again = PersistManager(options).LoadForRecovery();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->info.last_seq, 3u) << again->info.detail;
    ASSERT_EQ(again->frames.size(), 3u);
    EXPECT_TRUE(again->image == next);
  }
}

// --- MonitorStats survival matrix (pins the semantics documented on the
// struct: cold start / hot replace / warm restart) ---

TEST(PersistSemantics, MonitorStatsSemantics) {
  constexpr char kV1[] = R"(
guardrail pinned {
  trigger: { TIMER(10ms, 10ms) },
  rule: { LOAD_OR(x, 0) <= 5 },
  action: { SAVE(tripped, true) },
  meta: { hysteresis = 2, cooldown = 50ms }
}
persist { interval = 1s, journal_budget = 0 }
)";
  // Same name, different program — a hot replace.
  constexpr char kV2[] = R"(
guardrail pinned {
  trigger: { TIMER(10ms, 10ms) },
  rule: { LOAD_OR(x, 0) <= 7 },
  action: { SAVE(tripped, true) },
  meta: { hysteresis = 2, cooldown = 50ms }
}
)";
  const fs::path dir = FreshTestDir("stats-matrix");

  auto run = std::make_unique<DiffRun>();
  run->engine = std::make_unique<Engine>(&run->store, &run->registry);
  PersistOptions options;
  options.dir = dir.string();
  run->persist = std::make_unique<PersistManager>(options);
  run->engine->SetPersist(run->persist.get());
  ASSERT_TRUE(run->engine->LoadSource(kV1).ok());
  ASSERT_TRUE(run->persist->Open().ok());

  // Cold start: everything zero, uptime_evals tracks evaluations.
  auto stats = run->engine->StatsFor("pinned");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().evaluations, 0u);
  EXPECT_EQ(stats.value().uptime_evals, 0u);

  run->store.Save("x", Value(9.0));  // violating
  run->engine->AdvanceTo(Milliseconds(45));
  stats = run->engine->StatsFor("pinned");
  ASSERT_TRUE(stats.ok());
  const MonitorStats before = stats.value();
  EXPECT_GT(before.evaluations, 0u);
  EXPECT_EQ(before.uptime_evals, before.evaluations);
  EXPECT_TRUE(before.in_violation);
  EXPECT_GT(before.consecutive_violations, 0);
  // The uptime counter is exported at the callout boundary.
  auto exported = run->store.Load("monitor.pinned.uptime_evals");
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(static_cast<uint64_t>(exported.value().NumericOr(-1)), before.uptime_evals);

  // Hot replace: per-version counters reset; the violation-protocol clocks
  // (in_violation, consecutive_violations, last_action_time) and
  // uptime_evals — which describe the monitored name — survive.
  ASSERT_TRUE(run->engine->LoadSource(kV2).ok());
  stats = run->engine->StatsFor("pinned");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().evaluations, 0u);
  EXPECT_EQ(stats.value().violations, 0u);
  EXPECT_EQ(stats.value().action_firings, 0u);
  EXPECT_EQ(stats.value().uptime_evals, before.uptime_evals);
  EXPECT_EQ(stats.value().in_violation, before.in_violation);
  EXPECT_EQ(stats.value().consecutive_violations, before.consecutive_violations);
  EXPECT_EQ(stats.value().last_action_time, before.last_action_time);

  // Accumulate a bit more history on v2, then crash.
  run->engine->AdvanceTo(Milliseconds(95));
  stats = run->engine->StatsFor("pinned");
  ASSERT_TRUE(stats.ok());
  const MonitorStats at_crash = stats.value();
  EXPECT_GT(at_crash.uptime_evals, before.uptime_evals);
  run.reset();  // crash

  // Warm restart: every field is restored verbatim except the two host-clock
  // costs, which are process-local and restart from zero.
  auto rebooted = std::make_unique<DiffRun>();
  rebooted->engine = std::make_unique<Engine>(&rebooted->store, &rebooted->registry);
  rebooted->persist = std::make_unique<PersistManager>(options);
  rebooted->engine->SetPersist(rebooted->persist.get());
  ASSERT_TRUE(rebooted->engine->LoadSource(kV1).ok());
  ASSERT_TRUE(rebooted->engine->LoadSource(kV2).ok());
  auto recovered = rebooted->engine->Restore(*rebooted->persist);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered.value().cold_start);
  stats = rebooted->engine->StatsFor("pinned");
  ASSERT_TRUE(stats.ok());
  const MonitorStats after = stats.value();
  EXPECT_EQ(after.evaluations, at_crash.evaluations);
  EXPECT_EQ(after.violations, at_crash.violations);
  EXPECT_EQ(after.action_firings, at_crash.action_firings);
  EXPECT_EQ(after.errors, at_crash.errors);
  EXPECT_EQ(after.suppressed_hysteresis, at_crash.suppressed_hysteresis);
  EXPECT_EQ(after.suppressed_cooldown, at_crash.suppressed_cooldown);
  EXPECT_EQ(after.in_violation, at_crash.in_violation);
  EXPECT_EQ(after.consecutive_violations, at_crash.consecutive_violations);
  EXPECT_EQ(after.last_action_time, at_crash.last_action_time);
  EXPECT_EQ(after.uptime_evals, at_crash.uptime_evals);
  EXPECT_GT(at_crash.rule_wall_ns, 0);
  EXPECT_GT(at_crash.action_wall_ns, 0);
  EXPECT_EQ(after.rule_wall_ns, 0);
  EXPECT_EQ(after.action_wall_ns, 0);
}

// --- DSL surface ---

TEST(PersistSpec, PersistBlockConfiguresTheManagerAndOffIsAbsent) {
  const fs::path dir = FreshTestDir("dsl-surface");
  FeatureStore store;
  PolicyRegistry registry;
  Engine engine(&store, &registry);
  PersistOptions options;
  options.dir = dir.string();
  options.snapshot_interval = Seconds(10);
  options.journal_budget = 1 << 20;
  PersistManager persist(options);
  engine.SetPersist(&persist);

  // No persist block: the manager keeps its constructor-time options.
  ASSERT_TRUE(engine
                  .LoadSource("guardrail g { trigger: { TIMER(1s, 1s) }, "
                              "rule: { true }, action: { REPORT(\"x\") } }")
                  .ok());
  EXPECT_EQ(persist.options().snapshot_interval, Seconds(10));
  EXPECT_EQ(persist.options().journal_budget, static_cast<uint64_t>(1) << 20);

  // With a persist block, the spec wins.
  ASSERT_TRUE(engine.LoadSource("persist { interval = 2s, journal_budget = 4096 }").ok());
  EXPECT_EQ(persist.options().snapshot_interval, Seconds(2));
  EXPECT_EQ(persist.options().journal_budget, 4096u);

  // Validation: bad attributes are clean spec errors.
  EXPECT_FALSE(engine.LoadSource("persist { interval = 0 }").ok());
  EXPECT_FALSE(engine.LoadSource("persist { journal_budget = -1 }").ok());
  EXPECT_FALSE(engine.LoadSource("persist { cadence = 1s }").ok());

  // And with no manager attached, the block is validated but inert.
  FeatureStore bare_store;
  Engine bare(&bare_store, &registry);
  EXPECT_TRUE(bare.LoadSource("persist { interval = 2s }").ok());
  EXPECT_FALSE(bare.LoadSource("persist { interval = teapot }").ok());
}

// --- Kernel wiring ---

constexpr char kKernelSpec[] = R"(
guardrail io-watch {
  trigger: { TIMER(20ms, 20ms), FUNCTION(io_submit) },
  rule: { COUNT(io.lat, 100ms) == 0 || MEAN(io.lat, 100ms) <= 3ms },
  action: { SAVE(io.flag, true); REPORT("io slow") },
  on_satisfy: { SAVE(io.flag, false) },
  meta: { hysteresis = 2, cooldown = 40ms }
}
persist { interval = 100ms, journal_budget = 0 }
)";

// Schedules segment `segment`'s workload events on the kernel. Deterministic
// in (seed, segment) so a rebooted kernel re-schedules identical work.
void ScheduleSegment(Kernel& kernel, uint64_t seed, int segment) {
  Rng rng(seed * 131071ull + static_cast<uint64_t>(segment));
  const SimTime start = static_cast<SimTime>(segment) * Milliseconds(50);
  const int events = static_cast<int>(rng.UniformInt(2, 5));
  for (int i = 0; i < events; ++i) {
    const SimTime at = start + rng.UniformInt(1, Milliseconds(50) - 1);
    const double sample = rng.Uniform(5.0e5, 6.0e6);
    const bool callout = rng.Bernoulli(0.4);
    kernel.queue().ScheduleAt(at, [&kernel, at, sample, callout](SimTime) {
      kernel.store().Observe("io.lat", at, sample);
      if (callout) {
        kernel.Callout("io_submit");
      }
    });
  }
}

std::string KernelFingerprint(Kernel& kernel) {
  Snapshot snapshot;
  snapshot.store = kernel.store().DumpSlots();
  snapshot.report_ring = kernel.engine().EncodeReportRing();
  snapshot.image = kernel.engine().EncodeImage();
  return EncodeSnapshot(snapshot);
}

TEST(PersistKernel, PanicRebootMatchesUninterruptedRun) {
  const uint64_t seed = SeedBase() + 11;
  constexpr int kSegments = 8;

  // Reference: no crash.
  const fs::path ref_dir = FreshTestDir("kernel-ref");
  Kernel reference;
  PersistOptions ref_options;
  ref_options.dir = ref_dir.string();
  PersistManager ref_persist(ref_options);
  reference.AttachPersist(&ref_persist);
  ASSERT_TRUE(ref_persist.Open().ok());
  ASSERT_TRUE(reference.LoadGuardrails(kKernelSpec).ok());
  for (int segment = 0; segment < kSegments; ++segment) {
    ScheduleSegment(reference, seed, segment);
    reference.Run(static_cast<SimTime>(segment + 1) * Milliseconds(50));
  }
  const std::string want = KernelFingerprint(reference);

  // Crash run: panic at a segment boundary, reboot, finish the run.
  const fs::path crash_dir = FreshTestDir("kernel-crash");
  Kernel kernel;
  PersistOptions options;
  options.dir = crash_dir.string();
  PersistManager persist(options);
  kernel.AttachPersist(&persist);
  ASSERT_TRUE(persist.Open().ok());
  ASSERT_TRUE(kernel.LoadGuardrails(kKernelSpec).ok());
  constexpr int kPanicAfter = 4;
  for (int segment = 0; segment < kPanicAfter; ++segment) {
    ScheduleSegment(kernel, seed, segment);
    kernel.Run(static_cast<SimTime>(segment + 1) * Milliseconds(50));
  }
  kernel.Panic();
  EXPECT_TRUE(kernel.panicked());
  kernel.Run(Seconds(10));  // a panicked kernel does not run
  EXPECT_EQ(kernel.now(), static_cast<SimTime>(kPanicAfter) * Milliseconds(50));

  auto recovered = kernel.Reboot();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered.value().cold_start) << recovered.value().detail;
  for (int segment = kPanicAfter; segment < kSegments; ++segment) {
    ScheduleSegment(kernel, seed, segment);
    kernel.Run(static_cast<SimTime>(segment + 1) * Milliseconds(50));
  }
  EXPECT_EQ(KernelFingerprint(kernel), want);
}

TEST(PersistKernel, ScheduledPanicDropsEventsAndRebootRecovers) {
  const fs::path dir = FreshTestDir("kernel-sched-panic");
  Kernel kernel;
  PersistOptions options;
  options.dir = dir.string();
  PersistManager persist(options);
  kernel.AttachPersist(&persist);
  ASSERT_TRUE(persist.Open().ok());
  ASSERT_TRUE(kernel.LoadGuardrails(kKernelSpec).ok());

  for (int segment = 0; segment < 4; ++segment) {
    ScheduleSegment(kernel, 23, segment);
  }
  int late_events = 0;
  kernel.queue().ScheduleAt(Milliseconds(150), [&](SimTime) { ++late_events; });
  kernel.SchedulePanicAt(Milliseconds(110));
  kernel.Run(Milliseconds(200));
  EXPECT_TRUE(kernel.panicked());
  EXPECT_EQ(late_events, 0);  // dropped by the panic
  EXPECT_TRUE(kernel.queue().empty());

  const auto before = kernel.engine().StatsFor("io-watch");
  auto recovered = kernel.Reboot();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(kernel.panicked());
  // The monitor is back, and its committed uptime history survived.
  auto after = kernel.engine().StatsFor("io-watch");
  ASSERT_TRUE(after.ok());
  ASSERT_TRUE(before.ok());
  EXPECT_LE(after.value().uptime_evals, before.value().uptime_evals);
  EXPECT_GT(after.value().uptime_evals, 0u);
  // And the rebooted kernel keeps running.
  ScheduleSegment(kernel, 23, 4);
  kernel.Run(Milliseconds(250));
  EXPECT_FALSE(kernel.panicked());
}

// A panic while the overload governor is mid-degradation must warm-restart
// into the same ladder state: the rung, the EWMA signals, the per-monitor
// sampling stride positions, and the already-pinned fail-static episode all
// ride the engine image (v2). If any of them reset, the resumed run would
// re-apply the static default or shift the stride — visible as a fingerprint
// divergence from the uninterrupted oracle.
TEST(PersistKernel, PanicMidDegradationRestoresTheGovernorLadder) {
  constexpr char kGovernedSpec[] = R"(
    guardrail gov-crit {
      trigger: { FUNCTION(hot) },
      rule: { LOAD_OR(sys.pressure, 0) <= 50 },
      action: { SAVE(ctl.safe_mode, true); REPORT("static default") },
      meta: { severity = critical, criticality = critical }
    }
    guardrail gov-std {
      trigger: { FUNCTION(hot) },
      rule: { LOAD_OR(sys.pressure, 0) <= 60 },
      action: { REPORT() }
    }
    guardrail gov-be {
      trigger: { FUNCTION(hot) },
      rule: { LOAD_OR(sys.load, 0) <= 70 },
      action: { REPORT() },
      meta: { criticality = besteffort }
    }
    persist { interval = 100ms, journal_budget = 0 }
  )";
  EngineOptions governed;
  governed.governor.enabled = true;
  governed.governor.pressure_up = 5000.0;
  governed.governor.pressure_down = 500.0;
  governed.governor.dwell_up = 2;
  governed.governor.dwell_down = 3;
  governed.governor.sample_every = 3;
  governed.governor.alpha = 0.5;

  // Deterministic drive: a hot phase that walks the ladder down to
  // fail-static (pinning the critical default), then a calm phase that walks
  // it back up. `crash_at` callouts land mid-degradation.
  constexpr int kHotCallouts = 30;
  constexpr int kCalmCallouts = 14;
  constexpr int kCrashAt = 18;
  const auto drive = [](Kernel& kernel, int from, int to) {
    for (int i = from; i < to; ++i) {
      const SimTime t = (i < kHotCallouts) ? Milliseconds(1) + Microseconds(100) * i
                                           : Milliseconds(10) + Seconds(i - kHotCallouts);
      kernel.Run(t);
      kernel.Callout("hot");
    }
  };

  // Reference: no crash.
  const fs::path ref_dir = FreshTestDir("gov-ladder-ref");
  Kernel reference(governed);
  PersistOptions ref_options;
  ref_options.dir = ref_dir.string();
  PersistManager ref_persist(ref_options);
  reference.AttachPersist(&ref_persist);
  ASSERT_TRUE(ref_persist.Open().ok());
  ASSERT_TRUE(reference.LoadGuardrails(kGovernedSpec).ok());
  drive(reference, 0, kHotCallouts + kCalmCallouts);
  // The scenario is only meaningful if the ladder actually bottomed out and
  // recovered: a pinned episode, and full service again by the end.
  ASSERT_GE(reference.engine().governor().fail_static_epoch(), 1u);
  ASSERT_GE(reference.engine().governor().stats().static_applies, 1u);
  ASSERT_EQ(reference.engine().governor().mode(), GovernorMode::kFull);
  const std::string want = KernelFingerprint(reference);

  // Crash run: panic mid-degradation, warm-restart, finish the drive.
  const fs::path crash_dir = FreshTestDir("gov-ladder-crash");
  Kernel kernel(governed);
  PersistOptions options;
  options.dir = crash_dir.string();
  PersistManager persist(options);
  kernel.AttachPersist(&persist);
  ASSERT_TRUE(persist.Open().ok());
  ASSERT_TRUE(kernel.LoadGuardrails(kGovernedSpec).ok());
  drive(kernel, 0, kCrashAt);
  const GovernorMode mode_before = kernel.engine().governor().mode();
  const GovernorStats stats_before = kernel.engine().governor().stats();
  const uint64_t epoch_before = kernel.engine().governor().fail_static_epoch();
  ASSERT_NE(mode_before, GovernorMode::kFull);  // genuinely mid-degradation

  kernel.Panic();
  auto recovered = kernel.Reboot();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered.value().cold_start) << recovered.value().detail;

  // The rebooted engine resumes on the same rung with the same counters —
  // not at kFull with a blank ladder.
  const OverloadGovernor& after = kernel.engine().governor();
  EXPECT_EQ(after.mode(), mode_before);
  EXPECT_EQ(after.fail_static_epoch(), epoch_before);
  EXPECT_EQ(after.stats().transitions, stats_before.transitions);
  EXPECT_EQ(after.stats().static_applies, stats_before.static_applies);
  EXPECT_EQ(after.stats().sheds_besteffort, stats_before.sheds_besteffort);

  drive(kernel, kCrashAt, kHotCallouts + kCalmCallouts);
  EXPECT_EQ(KernelFingerprint(kernel), want);
}

// A journal the engine refuses (here: the newest frame carries a v3 image)
// must not leave the kernel half-restored or dead. Reboot() comes back cold:
// ok, cold_start set, the refusal named in `detail`, every spec loaded, and
// the kernel running.
TEST(PersistKernel, FailedWarmRestartFallsBackToAColdBoot) {
  const fs::path dir = FreshTestDir("kernel-refused");
  Kernel kernel;
  PersistOptions options;
  options.dir = dir.string();
  PersistManager persist(options);
  kernel.AttachPersist(&persist);
  ASSERT_TRUE(persist.Open().ok());
  ASSERT_TRUE(kernel.LoadGuardrails(kKernelSpec).ok());
  for (int segment = 0; segment < 3; ++segment) {
    ScheduleSegment(kernel, 31, segment);
    kernel.Run(static_cast<SimTime>(segment + 1) * Milliseconds(50));
  }
  const std::string image = kernel.engine().EncodeImage();
  std::string stamped;
  ByteWriter w(&stamped);
  w.U32(3);
  w.Raw(std::string_view(image).substr(4));
  persist.MarkDirty();
  ASSERT_TRUE(persist.CommitFrame(kernel.engine().now(), "", stamped).ok());

  kernel.Panic();
  auto recovered = kernel.Reboot();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered.value().cold_start);
  EXPECT_NE(recovered.value().detail.find("warm restart failed"), std::string::npos)
      << recovered.value().detail;
  EXPECT_NE(recovered.value().detail.find("image version 3 is not supported (expected 5)"),
            std::string::npos)
      << recovered.value().detail;
  EXPECT_FALSE(kernel.panicked());

  // Cold: the spec is loaded again with fresh counters.
  auto stats = kernel.engine().StatsFor("io-watch");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().uptime_evals, 0u);

  // And running: the next segment evaluates the monitor again.
  ScheduleSegment(kernel, 31, 3);
  kernel.Run(Milliseconds(200));
  EXPECT_FALSE(kernel.panicked());
  stats = kernel.engine().StatsFor("io-watch");
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats.value().evaluations, 0u);
}

// A directory written before frames carried patches holds OGJ1 frames: the
// journal is refused by name and dropped, Reboot() comes back cold, and
// journaling starts over in the current format.
TEST(PersistKernel, OldFormatJournalRebootsCold) {
  const fs::path dir = FreshTestDir("kernel-ogj1");
  const std::string old = ReadFile(CorpusFile("refused_ogj1_journal_golden.bin"));
  ASSERT_FALSE(old.empty());
  WriteFile(dir / "journal.wal", old);
  Kernel kernel;
  PersistOptions options;
  options.dir = dir.string();
  PersistManager persist(options);
  kernel.AttachPersist(&persist);
  ASSERT_TRUE(kernel.LoadGuardrails(kKernelSpec).ok());
  kernel.Panic();
  auto recovered = kernel.Reboot();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered.value().cold_start);
  EXPECT_NE(recovered.value().detail.find(
                "journal format OGJ1 at offset 0 is not supported (expected OGJ2)"),
            std::string::npos)
      << recovered.value().detail;
  EXPECT_EQ(recovered.value().bytes_discarded, old.size());
  EXPECT_EQ(fs::file_size(dir / "journal.wal"), 0u);

  ScheduleSegment(kernel, 31, 0);
  kernel.Run(Milliseconds(50));
  ASSERT_GT(persist.last_committed_seq(), 0u);
  kernel.Panic();
  recovered = kernel.Reboot();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(recovered.value().cold_start) << recovered.value().detail;
  EXPECT_EQ(recovered.value().last_seq, persist.last_committed_seq());
}

TEST(PersistKernel, RebootWithoutPersistIsACleanColdStart) {
  Kernel kernel;
  ASSERT_TRUE(kernel.LoadGuardrails(kKernelSpec).ok());
  kernel.Run(Milliseconds(100));
  kernel.Panic();
  auto recovered = kernel.Reboot();
  ASSERT_TRUE(recovered.ok());
  EXPECT_TRUE(recovered.value().cold_start);
  auto stats = kernel.engine().StatsFor("io-watch");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().uptime_evals, 0u);
  kernel.Run(Milliseconds(200));  // still functional
}

}  // namespace
}  // namespace osguard
