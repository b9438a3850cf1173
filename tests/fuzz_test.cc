// Robustness ("fuzz-lite") tests: deterministic randomized sweeps asserting
// the pipeline's total-safety properties —
//   * the lexer/parser never crash and always return clean statuses,
//   * every program the compiler accepts passes the verifier,
//   * every program the verifier accepts executes without crashing (clean
//     value or clean error, never UB),
// which together are the "a bad spec cannot take down the kernel" argument.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "src/agent/trace.h"
#include "src/dsl/lexer.h"
#include "src/dsl/parser.h"
#include "src/dsl/sema.h"
#include "src/persist/persist.h"
#include "src/wl/sessiongen.h"
#include "src/runtime/helper_env.h"
#include "src/support/rng.h"
#include "src/vm/compiler.h"
#include "src/vm/verifier.h"
#include "src/vm/vm.h"
#include "tests/test_dir.h"

namespace osguard {
namespace {

constexpr char kValidSpec[] = R"(
guardrail complex-spec {
  trigger: { TIMER(500ms, 250ms, 60s), FUNCTION(blk_submit_io), ONCHANGE(err_rate) },
  rule: {
    COUNT(io_lat, 10s) == 0 || MEAN(io_lat, 10s) <= 2ms && P99(io_lat, 10s) <= 20ms,
    LOAD_OR(err_rate, 0) <= 0.1
  },
  action: {
    REPORT("violated", err_rate, NOW());
    REPLACE(learned_policy, fallback_policy);
    RETRAIN(learned_policy, recent_window);
    DEPRIORITIZE({batch, scan}, {0.5, 0.1});
    SAVE(ml_enabled, false);
  },
  on_satisfy: { SAVE(ml_enabled, true) },
  meta: { severity = critical, cooldown = 5s, hysteresis = 2 }
}
)";

constexpr char kValidChaosSpec[] = R"(
guardrail storm-watch {
  trigger: { TIMER(1s, 1s) },
  rule: { LOAD_OR(false_submit_rate, 0) <= 0.05 },
  action: { SAVE(blk.ml_enabled, false) }
}
chaos {
  seed = 42,
  site ssd.latency_spike { mode = bernoulli, p = 0.01, latency = 2ms },
  site model.mispredict { mode = burst, period = 5s, burst = 500ms, p = 0.9 },
  site engine.callout_drop { mode = schedule, nth = {3, 1, 4} },
  site runtime.helper_fail { mode = off }
}
)";

TEST(FuzzTest, EveryPrefixOfAValidSpecFailsCleanly) {
  const std::string source = kValidSpec;
  for (size_t length = 0; length < source.size(); ++length) {
    auto spec = ParseSpecSource(source.substr(0, length));
    // Truncations must produce a status, never crash. (A few prefixes that
    // end exactly at a guardrail boundary may parse — that's fine.)
    if (!spec.ok()) {
      EXPECT_FALSE(spec.status().message().empty());
    }
  }
  EXPECT_TRUE(ParseSpecSource(source).ok());
}

TEST(FuzzTest, EveryPrefixOfAChaosSpecFailsCleanly) {
  const std::string source = kValidChaosSpec;
  for (size_t length = 0; length < source.size(); ++length) {
    auto spec = ParseSpecSource(source.substr(0, length));
    if (!spec.ok()) {
      EXPECT_FALSE(spec.status().message().empty());
    } else {
      // A prefix that parses must also analyze without crashing.
      Analyze(std::move(spec).value()).ok();
    }
  }
  auto full = ParseSpecSource(source);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(Analyze(std::move(full).value()).ok());
}

TEST(FuzzTest, RandomChaosBlocksNeverCrashAndDiagnoseStably) {
  // Random chaos blocks assembled from the real attribute vocabulary plus
  // junk: lexer -> parser -> sema must return cleanly, and running the
  // pipeline twice on the same source must produce the same status and the
  // same message (stable diagnostics — no pointer values, no iteration-order
  // dependence).
  const std::vector<std::string> keys = {"mode", "p",     "nth",  "period",
                                         "burst", "latency", "value", "seed",
                                         "junk_attr"};
  const std::vector<std::string> values = {"bernoulli", "schedule", "burst", "off",
                                           "0.5",       "1",        "-3",    "2ms",
                                           "5s",        "{1, 2, 3}", "{}",   "true",
                                           "\"text\"",  "teapot"};
  const std::vector<std::string> sites = {"ssd.latency_spike", "model.mispredict", "s",
                                          "a.b.c"};
  Rng rng(606);
  auto run_pipeline = [](const std::string& source) -> std::pair<bool, std::string> {
    auto spec = ParseSpecSource(source);
    if (!spec.ok()) {
      return {false, std::string(spec.status().message())};
    }
    auto analyzed = Analyze(std::move(spec).value());
    if (!analyzed.ok()) {
      return {false, std::string(analyzed.status().message())};
    }
    return {true, ""};
  };
  int parsed_ok = 0;
  for (int iteration = 0; iteration < 2000; ++iteration) {
    std::string source = "chaos {\n";
    if (rng.Bernoulli(0.5)) {
      source += "  seed = " + std::to_string(rng.UniformInt(-2, 100)) + ",\n";
    }
    const int site_count = static_cast<int>(rng.UniformInt(0, 3));
    for (int s = 0; s < site_count; ++s) {
      source += "  site " + sites[static_cast<size_t>(rng.UniformInt(
                                0, static_cast<int64_t>(sites.size()) - 1))] +
                " { ";
      const int attrs = static_cast<int>(rng.UniformInt(0, 4));
      for (int a = 0; a < attrs; ++a) {
        if (a > 0) {
          source += ", ";
        }
        source += keys[static_cast<size_t>(
                      rng.UniformInt(0, static_cast<int64_t>(keys.size()) - 1))] +
                  " = " +
                  values[static_cast<size_t>(
                      rng.UniformInt(0, static_cast<int64_t>(values.size()) - 1))];
      }
      source += " },\n";
    }
    source += "}\n";
    const auto first = run_pipeline(source);
    const auto second = run_pipeline(source);
    EXPECT_EQ(first, second) << source;  // deterministic verdict AND message
    if (first.first) {
      ++parsed_ok;
    }
  }
  // The generator is not vacuous: a decent share of blocks is fully valid.
  EXPECT_GT(parsed_ok, 50);
}

TEST(FuzzTest, CorpusSpecsParseWithStableDiagnostics) {
  // Seed corpus under tests/corpus/: known-good and known-bad chaos specs.
  // Every file must run the pipeline without crashing, twice, with identical
  // diagnostics; files named valid_* must parse and analyze cleanly, files
  // named invalid_* must be rejected with a non-empty message.
  const std::filesystem::path corpus_dir = OSGUARD_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::exists(corpus_dir)) << corpus_dir;
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus_dir)) {
    if (entry.path().extension() != ".spec") {
      continue;
    }
    ++files;
    std::ifstream in(entry.path());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string source = buffer.str();

    auto pipeline = [&source]() -> std::pair<bool, std::string> {
      auto spec = ParseSpecSource(source);
      if (!spec.ok()) {
        return {false, std::string(spec.status().message())};
      }
      auto analyzed = Analyze(std::move(spec).value());
      if (!analyzed.ok()) {
        return {false, std::string(analyzed.status().message())};
      }
      return {true, ""};
    };
    const auto first = pipeline();
    const auto second = pipeline();
    EXPECT_EQ(first, second) << entry.path();
    const std::string stem = entry.path().stem().string();
    if (stem.rfind("valid_", 0) == 0) {
      EXPECT_TRUE(first.first) << entry.path() << ": " << first.second;
    } else if (stem.rfind("invalid_", 0) == 0) {
      EXPECT_FALSE(first.first) << entry.path();
      EXPECT_FALSE(first.second.empty()) << entry.path();
    }
  }
  EXPECT_GE(files, 6) << "corpus went missing from " << corpus_dir;
}

// --- osguard::persist decoder targets ---
// The journal/snapshot codecs parse bytes that survived a crash, so they are
// the one place where "never crash, stable diagnostics" has to hold against
// genuinely arbitrary input, not just malformed specs.

// `prefix` followed by `n`, built by append: GCC 12 reports a false
// -Wrestrict on `"literal" + std::to_string(n)` at -O3.
std::string Numbered(const char* prefix, uint64_t n) {
  std::string out = prefix;
  out += std::to_string(n);
  return out;
}

JournalFrame PersistFuzzFrame(uint64_t seq) {
  JournalFrame frame;
  frame.seq = seq;
  frame.now = static_cast<SimTime>(seq) * Milliseconds(5);
  StoreOp save;
  save.kind = StoreMutation::Kind::kSave;
  save.key = Numbered("key", seq);
  save.value = Value(static_cast<double>(seq));
  frame.ops.push_back(save);
  StoreOp observe;
  observe.kind = StoreMutation::Kind::kObserve;
  observe.key = "series";
  observe.time = frame.now;
  observe.sample = 1.5 * static_cast<double>(seq);
  frame.ops.push_back(observe);
  frame.report_delta = Numbered("delta-", seq);
  frame.image = Numbered("image-", seq);
  return frame;
}

// A journal of patch frames as a PersistManager writes it: a 96-byte image
// whose counters move a few bytes per commit, one full frame, then patches.
std::string ManagerWrittenJournal() {
  const std::filesystem::path dir = FreshTestDir("fuzz-patch-journal");
  PersistOptions options;
  options.dir = dir.string();
  options.snapshot_interval = 0;
  options.journal_budget = 0;
  PersistManager persist(options);
  EXPECT_TRUE(persist.Open().ok());
  std::string image(96, 'i');
  for (uint64_t seq = 1; seq <= 6; ++seq) {
    PutU64(image.data() + 8, seq);
    PutU64(image.data() + 40, seq * seq);
    image[90] = static_cast<char>('a' + seq);
    persist.MarkDirty();
    EXPECT_TRUE(persist.CommitFrame(static_cast<SimTime>(seq), Numbered("delta-", seq), image)
                    .ok());
  }
  std::ifstream in(dir / "journal.wal", std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

// ScanJournal/DecodeSnapshot results reduced to a comparable verdict.
std::tuple<size_t, size_t, size_t, std::string> ScanVerdict(const std::string& bytes) {
  const FrameScan scan = ScanJournal(bytes);
  return {scan.frames.size(), scan.valid_bytes, scan.discarded_bytes, scan.detail};
}

TEST(FuzzTest, RandomBytesNeverCrashThePersistDecoders) {
  Rng rng(707);
  for (int iteration = 0; iteration < 3000; ++iteration) {
    std::string garbage;
    const int length = static_cast<int>(rng.UniformInt(0, 200));
    for (int i = 0; i < length; ++i) {
      garbage += static_cast<char>(rng.UniformInt(0, 255));
    }
    // Both decoders must return cleanly and deterministically.
    EXPECT_EQ(ScanVerdict(garbage), ScanVerdict(garbage));
    auto first = DecodeSnapshot(garbage);
    auto second = DecodeSnapshot(garbage);
    EXPECT_EQ(first.ok(), second.ok());
    if (!first.ok()) {
      EXPECT_EQ(first.status().message(), second.status().message());
      EXPECT_FALSE(first.status().message().empty());
    }
  }
}

// Each frame's image, with patches applied in order; stops at the first
// patch that does not apply.
std::vector<std::string> RebuiltImages(const std::vector<JournalFrame>& frames) {
  std::vector<std::string> images;
  std::string image;
  for (const JournalFrame& frame : frames) {
    if (frame.image_kind == ImageKind::kFull) {
      image = frame.image;
    } else if (!ApplyImagePatch(frame.image, &image).ok()) {
      break;
    }
    images.push_back(image);
  }
  return images;
}

// Mutates `valid`, a clean six-frame journal, 3000 times: every scan is
// stable and keeps only frames identical to the originals at their
// positions, and applying the surviving patches never crashes and, over an
// intact prefix, rebuilds the original images.
void CheckMutatedJournals(const std::string& valid, uint64_t seed) {
  const FrameScan clean = ScanJournal(valid);
  ASSERT_EQ(clean.frames.size(), 6u);
  ASSERT_TRUE(clean.detail.empty());
  const std::vector<std::string> clean_images = RebuiltImages(clean.frames);
  ASSERT_EQ(clean_images.size(), 6u);

  Rng rng(seed);
  for (int iteration = 0; iteration < 3000; ++iteration) {
    std::string mutated = valid;
    switch (rng.UniformInt(0, 3)) {
      case 0: {  // single bit flip
        const size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
        mutated[at] = static_cast<char>(mutated[at] ^ (1u << rng.UniformInt(0, 7)));
        break;
      }
      case 1:  // truncated tail
        mutated.resize(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(mutated.size()))));
        break;
      case 2: {  // random byte overwrite run
        const size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
        const size_t run = static_cast<size_t>(rng.UniformInt(1, 8));
        for (size_t i = at; i < mutated.size() && i < at + run; ++i) {
          mutated[i] = static_cast<char>(rng.UniformInt(0, 255));
        }
        break;
      }
      default:  // garbage appended after the valid frames
        for (int i = 0; i < 16; ++i) {
          mutated += static_cast<char>(rng.UniformInt(0, 255));
        }
        break;
    }
    const FrameScan scan = ScanJournal(mutated);
    EXPECT_EQ(ScanVerdict(mutated), ScanVerdict(mutated));  // stable
    // Total safety: whatever survives the scan is a prefix of real frames —
    // every accepted frame must decode identically to the original at its
    // position, unless the mutation landed beyond it.
    ASSERT_LE(scan.valid_bytes, mutated.size());
    const std::vector<std::string> images = RebuiltImages(scan.frames);
    for (size_t i = 0; i < scan.frames.size() && i < clean.frames.size(); ++i) {
      if (mutated.compare(0, clean.frame_ends[i], valid, 0, clean.frame_ends[i]) == 0) {
        EXPECT_EQ(scan.frames[i].seq, clean.frames[i].seq);
        EXPECT_EQ(scan.frames[i].image_kind, clean.frames[i].image_kind);
        EXPECT_EQ(scan.frames[i].image, clean.frames[i].image);
        ASSERT_LT(i, images.size());
        EXPECT_EQ(images[i], clean_images[i]);
      }
    }
  }
}

TEST(FuzzTest, MutatedJournalsKeepTheValidPrefixAndDiagnoseStably) {
  std::string valid;
  for (uint64_t seq = 1; seq <= 6; ++seq) {
    AppendFrame(PersistFuzzFrame(seq), &valid);
  }
  CheckMutatedJournals(valid, 808);

  const std::string written = ManagerWrittenJournal();
  const FrameScan scan = ScanJournal(written);
  ASSERT_EQ(scan.frames.size(), 6u);
  ASSERT_EQ(scan.frames[0].image_kind, ImageKind::kFull);
  for (size_t i = 1; i < scan.frames.size(); ++i) {
    ASSERT_EQ(scan.frames[i].image_kind, ImageKind::kPatch) << "frame " << i;
  }
  CheckMutatedJournals(written, 809);
}

// ApplyImagePatch reads patch bytes that survived a crash. Random bytes and
// mutated real patches, against bases of many lengths, never crash it; it
// answers the same way twice, what it accepts keeps the base's length, and
// what it refuses leaves the image as it was.
TEST(FuzzTest, RandomAndMutatedPatchesNeverCrashTheApplier) {
  Rng rng(909);
  auto random_bytes = [&](size_t n) {
    std::string bytes(n, '\0');
    for (char& byte : bytes) {
      byte = static_cast<char>(rng.UniformInt(0, 255));
    }
    return bytes;
  };
  auto check = [](const std::string& base, std::string_view patch) {
    std::string first = base;
    std::string second = base;
    const Status first_status = ApplyImagePatch(patch, &first);
    const Status second_status = ApplyImagePatch(patch, &second);
    ASSERT_EQ(first_status.ok(), second_status.ok());
    EXPECT_EQ(first, second);
    if (first_status.ok()) {
      EXPECT_EQ(first.size(), base.size());
    } else {
      EXPECT_FALSE(first_status.message().empty());
      EXPECT_EQ(first_status.message(), second_status.message());
      EXPECT_EQ(first, base);
    }
  };
  for (int iteration = 0; iteration < 3000; ++iteration) {
    const std::string base = random_bytes(static_cast<size_t>(rng.UniformInt(0, 64)));
    // Random bytes, half of them behind a header that matches the base.
    std::string patch;
    if (rng.Bernoulli(0.5)) {
      ByteWriter w(&patch);
      w.U32(static_cast<uint32_t>(base.size()));
      w.U32(static_cast<uint32_t>(rng.UniformInt(0, 4)));
    }
    patch += random_bytes(static_cast<size_t>(rng.UniformInt(0, 48)));
    check(base, patch);

    // A real patch, mutated.
    std::string image = base;
    for (int e = 0; e < 4 && !image.empty(); ++e) {
      const auto at =
          static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(image.size()) - 1));
      image[at] = static_cast<char>(rng.UniformInt(0, 255));
    }
    std::string real;
    AppendImagePatch(base, image, &real);
    if (!base.empty()) {
      std::string rebuilt = base;
      const Status applied = ApplyImagePatch(real, &rebuilt);
      ASSERT_TRUE(applied.ok()) << applied.ToString();
      EXPECT_EQ(rebuilt, image);
    }
    switch (rng.UniformInt(0, 3)) {
      case 0: {  // single bit flip
        const auto at =
            static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(real.size()) - 1));
        real[at] = static_cast<char>(real[at] ^ (1u << rng.UniformInt(0, 7)));
        break;
      }
      case 1:  // truncated
        real.resize(static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(real.size()))));
        break;
      case 2: {  // one run's offset or length overwritten
        if (real.size() >= 16) {
          PutU32(real.data() + (rng.Bernoulli(0.5) ? 8 : 12),
                 static_cast<uint32_t>(rng.UniformInt(0, 0xffffffffLL)));
        }
        break;
      }
      default:  // garbage appended
        real += random_bytes(static_cast<size_t>(rng.UniformInt(1, 8)));
        break;
    }
    check(base, real);
  }
}

TEST(FuzzTest, PersistCorpusBinarySeedsDecodeStably) {
  // Binary seed corpus under tests/corpus/*.bin: known-good and known-damaged
  // journal/snapshot images produced by the real codec. Every file must run
  // both decoders without crashing, twice, with identical results; files
  // named valid_* must decode cleanly, the rest must surface their damage.
  const std::filesystem::path corpus_dir = OSGUARD_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::exists(corpus_dir)) << corpus_dir;
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus_dir)) {
    if (entry.path().extension() != ".bin") {
      continue;
    }
    ++files;
    std::ifstream in(entry.path(), std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_FALSE(bytes.empty()) << entry.path();

    EXPECT_EQ(ScanVerdict(bytes), ScanVerdict(bytes)) << entry.path();
    auto snap_first = DecodeSnapshot(bytes);
    auto snap_second = DecodeSnapshot(bytes);
    EXPECT_EQ(snap_first.ok(), snap_second.ok()) << entry.path();

    const std::string stem = entry.path().stem().string();
    const FrameScan scan = ScanJournal(bytes);
    if (stem.rfind("valid_journal", 0) == 0) {
      EXPECT_TRUE(scan.detail.empty()) << entry.path() << ": " << scan.detail;
      EXPECT_GT(scan.frames.size(), 0u) << entry.path();
      EXPECT_EQ(scan.discarded_bytes, 0u) << entry.path();
    } else if (stem.rfind("valid_snapshot", 0) == 0) {
      EXPECT_TRUE(snap_first.ok()) << entry.path() << ": "
                                   << snap_first.status().ToString();
    } else if (stem.rfind("torn_", 0) == 0 || stem.rfind("bitflip_", 0) == 0) {
      EXPECT_FALSE(scan.detail.empty()) << entry.path();
      EXPECT_GT(scan.discarded_bytes, 0u) << entry.path();
    } else if (stem.rfind("truncated_", 0) == 0) {
      EXPECT_FALSE(snap_first.ok()) << entry.path();
      EXPECT_FALSE(snap_first.status().message().empty()) << entry.path();
    } else if (stem.rfind("refused_", 0) == 0) {
      // A journal in a format this build no longer reads: no frame of it
      // is kept, and the scan says why.
      EXPECT_FALSE(scan.detail.empty()) << entry.path();
      EXPECT_TRUE(scan.frames.empty()) << entry.path();
      EXPECT_EQ(scan.discarded_bytes, bytes.size()) << entry.path();
    }
  }
  EXPECT_GE(files, 5) << "binary corpus went missing from " << corpus_dir;
}

// --- osguard::agent trace decoder targets ---
// Tool-call traces cross a trust boundary (operators replay recorded agent
// sessions through the governor), so the decoder gets the same treatment as
// the persist codecs: never crash, reject garbage with a clean error, and
// diagnose identical inputs identically.

// DecodeTrace reduced to a comparable verdict.
std::pair<bool, std::string> TraceVerdict(const std::string& text) {
  auto decoded = agent::DecodeTrace(text);
  if (!decoded.ok()) {
    return {false, std::string(decoded.status().message())};
  }
  return {true, ""};
}

TEST(FuzzTest, RandomBytesNeverCrashTheAgentTraceDecoder) {
  Rng rng(909);
  for (int iteration = 0; iteration < 3000; ++iteration) {
    std::string garbage;
    const int length = static_cast<int>(rng.UniformInt(0, 200));
    for (int i = 0; i < length; ++i) {
      // Bias toward the decoder's own alphabet so mutations reach deep into
      // the field parsers instead of dying at the first byte.
      if (rng.Bernoulli(0.7)) {
        constexpr char kAlphabet[] = "0123456789,\n#filenetxc -";
        garbage += kAlphabet[rng.UniformInt(0, sizeof(kAlphabet) - 2)];
      } else {
        garbage += static_cast<char>(rng.UniformInt(0, 255));
      }
    }
    const auto first = TraceVerdict(garbage);
    EXPECT_EQ(first, TraceVerdict(garbage));  // stable verdict AND message
    if (!first.first) {
      EXPECT_FALSE(first.second.empty());
    }
  }
}

TEST(FuzzTest, MutatedAgentTracesDiagnoseStably) {
  // Start from a real generated workload so the valid baseline is large and
  // structurally diverse, then mutate it every way a file on disk can rot.
  SessionWorkloadOptions options;
  options.duration = Milliseconds(300);
  options.sessions_per_sec = 60.0;
  const std::vector<agent::ToolCallEvent> events =
      SessionCallGenerator(options, 909).Generate();
  ASSERT_GT(events.size(), 50u);
  const std::string valid = agent::EncodeTrace(events);
  auto round_trip = agent::DecodeTrace(valid);
  ASSERT_TRUE(round_trip.ok());
  ASSERT_EQ(round_trip.value(), events);

  Rng rng(1010);
  int rejected = 0;
  for (int iteration = 0; iteration < 2000; ++iteration) {
    std::string mutated = valid;
    switch (rng.UniformInt(0, 3)) {
      case 0: {  // single byte corruption
        const size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
        mutated[at] = static_cast<char>(rng.UniformInt(0, 255));
        break;
      }
      case 1:  // truncated tail (may split a line mid-field)
        mutated.resize(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(mutated.size()))));
        break;
      case 2: {  // duplicated line range (breaks timestamp monotonicity)
        const size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(mutated.size()) - 1));
        mutated.insert(at, valid.substr(0, static_cast<size_t>(
                               rng.UniformInt(1, 40))));
        break;
      }
      default:  // garbage appended after the valid lines
        for (int i = 0; i < 16; ++i) {
          mutated += static_cast<char>(rng.UniformInt(0, 255));
        }
        break;
    }
    const auto first = TraceVerdict(mutated);
    EXPECT_EQ(first, TraceVerdict(mutated));
    if (!first.first) {
      ++rejected;
      EXPECT_FALSE(first.second.empty());
    }
  }
  // Most mutations break the format; the rest must decode cleanly (e.g. a
  // truncation on a line boundary is a shorter valid trace).
  EXPECT_GT(rejected, 1000);
}

TEST(FuzzTest, GeneratedWorkloadsRoundTripThroughTheTraceCodec) {
  // Differential property across many seeds: Encode then Decode is the
  // identity on every stream the workload generator can emit.
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    SessionWorkloadOptions options;
    options.duration = Milliseconds(150);
    options.sessions_per_sec = 80.0;
    options.secret_fraction = 0.1;
    const std::vector<agent::ToolCallEvent> events =
        SessionCallGenerator(options, seed).Generate();
    auto decoded = agent::DecodeTrace(agent::EncodeTrace(events));
    ASSERT_TRUE(decoded.ok()) << "seed=" << seed << ": "
                              << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), events) << "seed=" << seed;
  }
}

TEST(FuzzTest, AgentTraceCorpusDecodesStably) {
  // Seed corpus under tests/corpus/*.trace: files named valid_* must decode
  // cleanly, files named invalid_* must be rejected with a non-empty
  // message; both twice, with identical diagnostics.
  const std::filesystem::path corpus_dir = OSGUARD_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::exists(corpus_dir)) << corpus_dir;
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus_dir)) {
    if (entry.path().extension() != ".trace") {
      continue;
    }
    ++files;
    std::ifstream in(entry.path(), std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const auto first = TraceVerdict(text);
    EXPECT_EQ(first, TraceVerdict(text)) << entry.path();
    const std::string stem = entry.path().stem().string();
    if (stem.rfind("valid_", 0) == 0) {
      EXPECT_TRUE(first.first) << entry.path() << ": " << first.second;
    } else if (stem.rfind("invalid_", 0) == 0) {
      EXPECT_FALSE(first.first) << entry.path();
      EXPECT_FALSE(first.second.empty()) << entry.path();
    }
  }
  EXPECT_GE(files, 5) << "trace corpus went missing from " << corpus_dir;
}

TEST(FuzzTest, RandomBytesNeverCrashTheLexer) {
  Rng rng(101);
  for (int iteration = 0; iteration < 2000; ++iteration) {
    std::string garbage;
    const int length = static_cast<int>(rng.UniformInt(0, 120));
    for (int i = 0; i < length; ++i) {
      garbage += static_cast<char>(rng.UniformInt(1, 127));
    }
    Lexer lexer(garbage);
    auto tokens = lexer.Tokenize();  // ok or clean error; must not crash
    if (!tokens.ok()) {
      EXPECT_EQ(tokens.status().code(), ErrorCode::kParseError);
    }
  }
}

TEST(FuzzTest, RandomTokenSoupNeverCrashesTheParser) {
  const std::vector<std::string> vocabulary = {
      "guardrail", "trigger",   "rule",  "action", "meta",   "on_satisfy", "TIMER",
      "FUNCTION",  "ONCHANGE",  "LOAD",  "SAVE",   "REPORT", "MEAN",       "{",
      "}",         "(",         ")",     ",",      ":",      ";",          "<=",
      ">=",        "==",        "&&",    "||",     "!",      "+",          "-",
      "*",         "/",         "1",     "0.05",   "1s",     "250ms",      "true",
      "false",     "\"text\"",  "x",     "a_key",  "=",      "severity",   "chaos",
      "site",      "mode",      "bernoulli",       "nth",    "seed",       "burst",
      "period",    "ssd.latency_spike"};
  Rng rng(202);
  for (int iteration = 0; iteration < 3000; ++iteration) {
    std::string source;
    const int tokens = static_cast<int>(rng.UniformInt(1, 60));
    for (int i = 0; i < tokens; ++i) {
      source += vocabulary[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(vocabulary.size()) - 1))];
      source += " ";
    }
    auto spec = ParseSpecSource(source);
    if (spec.ok()) {
      // If it parsed, analysis and compilation must also behave (ok or
      // clean status) — exercise the rest of the pipeline too.
      auto analyzed = Analyze(std::move(spec).value());
      if (analyzed.ok()) {
        auto compiled = CompileSpec(analyzed.value());
        if (compiled.ok()) {
          for (const CompiledGuardrail& guardrail : compiled.value()) {
            EXPECT_TRUE(Verify(guardrail.rule).ok());
          }
        }
      }
    }
  }
}

// Random expression generator producing syntactically valid, possibly
// semantically degenerate expressions.
std::string RandomExpr(Rng& rng, int depth) {
  if (depth <= 0) {
    switch (rng.UniformInt(0, 5)) {
      case 0:
        return std::to_string(rng.UniformInt(-100, 100));
      case 1:
        return "0." + std::to_string(rng.UniformInt(0, 99));
      case 2:
        return "some_key";
      case 3:
        return "LOAD_OR(k" + std::to_string(rng.UniformInt(0, 5)) + ", " +
               std::to_string(rng.UniformInt(0, 9)) + ")";
      case 4:
        return rng.Bernoulli(0.5) ? "true" : "false";
      default:
        return std::to_string(rng.UniformInt(1, 5)) + "s";
    }
  }
  switch (rng.UniformInt(0, 7)) {
    case 0:
      return "(" + RandomExpr(rng, depth - 1) + " + " + RandomExpr(rng, depth - 1) + ")";
    case 1:
      return "(" + RandomExpr(rng, depth - 1) + " * " + RandomExpr(rng, depth - 1) + ")";
    case 2:
      return "(" + RandomExpr(rng, depth - 1) + " / " + RandomExpr(rng, depth - 1) + ")";
    case 3:
      return "(" + RandomExpr(rng, depth - 1) + " <= " + RandomExpr(rng, depth - 1) + ")";
    case 4:
      return "(" + RandomExpr(rng, depth - 1) + " && " + RandomExpr(rng, depth - 1) + ")";
    case 5:
      return "(" + RandomExpr(rng, depth - 1) + " || " + RandomExpr(rng, depth - 1) + ")";
    case 6:
      return "!" + RandomExpr(rng, depth - 1);
    default:
      return "ABS(" + RandomExpr(rng, depth - 1) + ")";
  }
}

TEST(FuzzTest, RandomExpressionsCompileVerifyAndExecuteSafely) {
  Rng rng(303);
  FeatureStore store;
  store.Save("some_key", Value(3.5));
  for (int k = 0; k < 6; ++k) {
    store.Save("k" + std::to_string(k), Value(k));
  }
  MonitorHelperEnv env(&store, nullptr);
  env.SetEnvelope(ActionEnvelope{"fuzz", Severity::kInfo, Seconds(1)});
  Vm vm;

  int executed_ok = 0;
  for (int iteration = 0; iteration < 2000; ++iteration) {
    const std::string source = RandomExpr(rng, static_cast<int>(rng.UniformInt(1, 4)));
    auto expr = ParseExprSource(source);
    ASSERT_TRUE(expr.ok()) << source;  // generator emits valid syntax
    auto program = CompileExpr(*expr.value(), "fuzz");
    if (!program.ok()) {
      // Deep nesting can exceed registers — must be a clean verifier error.
      EXPECT_EQ(program.status().code(), ErrorCode::kVerifierError) << source;
      continue;
    }
    EXPECT_TRUE(Verify(program.value()).ok()) << source;
    auto result = vm.Execute(program.value(), env);
    if (result.ok()) {
      ++executed_ok;
    } else {
      // Division by zero etc.: clean execution errors only.
      EXPECT_EQ(result.status().code(), ErrorCode::kExecutionError) << source;
    }
  }
  EXPECT_GT(executed_ok, 1000);  // most random expressions actually run
}

TEST(FuzzTest, MutatedProgramsNeverCrashTheVm) {
  // Take a real compiled program, randomly mutate instruction fields, and
  // run everything the verifier still accepts. The VM must return a value
  // or a clean error for every accepted mutant.
  auto expr = ParseExprSource("LOAD_OR(a, 1) + MEAN(s, 10s) <= 2 * ABS(b) && EXISTS(c)");
  ASSERT_TRUE(expr.ok());
  auto base = CompileExpr(*expr.value(), "mutant-base");
  ASSERT_TRUE(base.ok());

  FeatureStore store;
  store.Save("a", Value(1));
  store.Save("b", Value(-2.0));
  store.Observe("s", Seconds(1), 4.0);
  MonitorHelperEnv env(&store, nullptr);
  env.SetEnvelope(ActionEnvelope{"mutant", Severity::kInfo, Seconds(1)});
  Vm vm;

  Rng rng(404);
  int accepted = 0;
  for (int iteration = 0; iteration < 5000; ++iteration) {
    Program mutant = base.value();
    const int mutations = static_cast<int>(rng.UniformInt(1, 3));
    for (int m = 0; m < mutations; ++m) {
      Insn& insn = mutant.insns[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(mutant.insns.size()) - 1))];
      switch (rng.UniformInt(0, 4)) {
        case 0:
          insn.op = static_cast<Op>(rng.UniformInt(0, 25));
          break;
        case 1:
          insn.a = static_cast<uint8_t>(rng.UniformInt(0, 70));
          break;
        case 2:
          insn.b = static_cast<uint8_t>(rng.UniformInt(0, 70));
          break;
        case 3:
          insn.c = static_cast<uint8_t>(rng.UniformInt(0, 70));
          break;
        default:
          insn.imm = static_cast<int32_t>(rng.UniformInt(-4, 80));
          break;
      }
    }
    if (!Verify(mutant).ok()) {
      continue;  // rejected mutants are the verifier doing its job
    }
    ++accepted;
    auto result = vm.Execute(mutant, env);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), ErrorCode::kExecutionError);
    }
  }
  // The verifier is strict but not vacuous: some mutants survive.
  EXPECT_GT(accepted, 10);
}

TEST(FuzzTest, RandomConstExpressionsMatchReferenceEvaluator) {
  // Deterministic differential test: for const-only expressions, the
  // compiled program and the AST evaluator must agree exactly.
  Rng rng(505);
  FeatureStore store;
  MonitorHelperEnv env(&store, nullptr);
  env.SetEnvelope(ActionEnvelope{"diff", Severity::kInfo, 0});
  Vm vm;

  auto random_const_expr = [&rng](auto&& self, int depth) -> std::string {
    if (depth <= 0) {
      switch (rng.UniformInt(0, 2)) {
        case 0:
          return std::to_string(rng.UniformInt(-20, 20));
        case 1:
          return std::to_string(rng.UniformInt(0, 9)) + "." +
                 std::to_string(rng.UniformInt(0, 9));
        default:
          return rng.Bernoulli(0.5) ? "true" : "false";
      }
    }
    static const char* ops[] = {"+", "-", "*", "<=", "<", "==", "&&", "||"};
    const char* op = ops[rng.UniformInt(0, 7)];
    return "(" + self(self, depth - 1) + " " + op + " " + self(self, depth - 1) + ")";
  };

  int compared = 0;
  for (int iteration = 0; iteration < 3000; ++iteration) {
    const std::string source =
        random_const_expr(random_const_expr, static_cast<int>(rng.UniformInt(1, 4)));
    auto expr = ParseExprSource(source);
    ASSERT_TRUE(expr.ok()) << source;
    auto reference = EvalConst(*expr.value());
    if (!reference.ok()) {
      continue;  // e.g. arithmetic on bool subtree rejected by the folder
    }
    auto program = CompileExpr(*expr.value(), "diff");
    if (!program.ok()) {
      continue;
    }
    auto executed = vm.Execute(program.value(), env);
    if (!executed.ok()) {
      continue;  // e.g. arithmetic type faults the VM flags at run time
    }
    EXPECT_NEAR(executed.value().NumericOr(-7777), reference.value().NumericOr(-9999), 1e-9)
        << source;
    ++compared;
  }
  EXPECT_GT(compared, 1500);
}

}  // namespace
}  // namespace osguard
