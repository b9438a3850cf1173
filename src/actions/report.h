// Violation reporting: the REPORT action (A1) and the engine's audit trail.
//
// REPORT "logs relevant system context when the property is violated". The
// Reporter keeps a bounded in-memory ring of structured records (what a
// kernel deployment would push to a trace buffer) plus per-guardrail
// counters, and mirrors records to the process logger at a severity-mapped
// level.

#ifndef SRC_ACTIONS_REPORT_H_
#define SRC_ACTIONS_REPORT_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/dsl/sema.h"
#include "src/store/value.h"
#include "src/support/time.h"

namespace osguard {

enum class ReportKind {
  kViolation,       // rule evaluated false
  kActionPayload,   // explicit REPORT(...) payload from an action program
  kSatisfied,       // violated -> satisfied transition
  kMonitorError,    // rule/action program faulted
};

std::string_view ReportKindName(ReportKind kind);

struct ReportRecord {
  // THE total-order / stable-sort key over the report stream. Assigned by
  // Reporter::Report at emission time, strictly increasing, never reused
  // (a warm restart resumes from the persisted next_sequence). Emission
  // order is explicitly deterministic — not incidental — at every engine
  // site, which is what lets replays and warm restarts reproduce the stream
  // bit-identically:
  //   * within a callout, monitors fire in the hook index's registration
  //     order (sorted monitor-name order, rebuilt on every topology change);
  //   * a monitor's own records follow its protocol order in
  //     Engine::RunProtocol: the fail-static record then its action's
  //     REPORTs; or the verdict record (violation / satisfied / error), any
  //     action REPORTs, then the quarantine record and its action's REPORTs
  //     (pinned by tests/engine_test.cc, the ProtocolReportOrderOf* tests);
  //   * replace/rollback records are emitted at callout boundaries in
  //     rollback-queue insertion order, which is evaluation order — NOT
  //     name order (pinned by tests/supervisor_test.cc,
  //     RollbackReportOrderTest).
  // Consumers that need a total order over records sort by `sequence` alone;
  // `time` is simulation time and routinely carries ties.
  uint64_t sequence = 0;
  SimTime time = 0;
  ReportKind kind = ReportKind::kViolation;
  Severity severity = Severity::kWarning;
  std::string guardrail;
  std::string message;          // rendered, human-readable
  std::vector<Value> payload;   // raw REPORT(...) arguments, if any

  std::string ToString() const;

  // The wire layout of one record in a report delta or ring
  // (src/persist/wire.h).
  template <class Io, class Self>
  static void PersistFields(Io& io, Self& r) {
    io.U64(r.sequence);
    io.I64(r.time);
    io.Enum(r.kind, ReportKind::kMonitorError, "kind");
    io.Enum(r.severity, Severity::kCritical, "severity");
    io.Str(r.guardrail);
    io.Str(r.message);
    io.Seq(r.payload, "payload", [&](auto& value) { io.Val(value); });
  }
};

class Reporter {
 public:
  explicit Reporter(size_t capacity = 4096) : capacity_(capacity) {}
  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;

  void Report(ReportRecord record);

  // Most recent records, oldest first (bounded by construction capacity).
  std::vector<ReportRecord> Records() const;
  std::vector<ReportRecord> RecordsFor(const std::string& guardrail) const;

  // Calls visit(record) for each retained record with sequence >= from,
  // oldest first, without copying: how the engine encodes a journal frame's
  // report delta and a snapshot's ring. `visit` must not call back into the
  // reporter. The ring is ordered by sequence, so this costs O(log n) plus
  // the records visited.
  template <class Visit>
  void ForEachRecordSince(uint64_t from, Visit&& visit) const {
    auto it = std::partition_point(
        records_.begin(), records_.end(),
        [from](const ReportRecord& record) { return record.sequence < from; });
    for (; it != records_.end(); ++it) {
      visit(*it);
    }
  }

  uint64_t total_reports() const;
  uint64_t CountFor(const std::string& guardrail) const;
  uint64_t CountOfKind(ReportKind kind) const;

  // --- Persistence (osguard::persist) ---

  // The counters the engine image carries, in image order
  // (src/persist/wire.h). The tallies are written sorted by key, so two
  // reporters with identical history encode identical bytes.
  template <class Io, class Self>
  static void PersistFields(Io& io, Self& r) {
    io.U64(r.next_sequence_);
    io.SortedMap(r.per_guardrail_, "guardrail tally", [&](auto& guardrail, auto& count) {
      io.Str(guardrail);
      io.U64(count);
    });
    io.SortedMap(r.per_kind_, "kind tally", [&](auto& kind, auto& count) {
      io.U32(kind);
      io.U64(count);
    });
  }

  // Re-inserts a persisted record verbatim, in the order it was persisted
  // (so the ring stays ordered by sequence): the stored sequence number is
  // preserved, counters do not advance (the image carries them), and
  // nothing is mirrored to the logger. Evicts at capacity, so replaying a
  // baseline run's records yields a bit-identical ring even when the replay
  // spans more records than the ring holds.
  void RestoreRecord(ReportRecord record);

  void Clear();

 private:
  size_t capacity_;
  uint64_t next_sequence_ = 0;
  std::deque<ReportRecord> records_;
  std::unordered_map<std::string, uint64_t> per_guardrail_;
  std::unordered_map<int, uint64_t> per_kind_;
};

}  // namespace osguard

#endif  // SRC_ACTIONS_REPORT_H_
