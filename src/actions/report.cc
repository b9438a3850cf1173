#include "src/actions/report.h"

#include <algorithm>
#include <utility>

#include "src/support/logging.h"

namespace osguard {

std::string_view ReportKindName(ReportKind kind) {
  switch (kind) {
    case ReportKind::kViolation:
      return "violation";
    case ReportKind::kActionPayload:
      return "report";
    case ReportKind::kSatisfied:
      return "satisfied";
    case ReportKind::kMonitorError:
      return "monitor-error";
  }
  return "?";
}

std::string ReportRecord::ToString() const {
  std::string out = "[";
  out += FormatDuration(time);
  out += "] ";
  out += SeverityName(severity);
  out += ' ';
  out += ReportKindName(kind);
  out += " guardrail=";
  out += guardrail;
  if (!message.empty()) {
    out += " msg=\"";
    out += message;
    out += '"';
  }
  if (!payload.empty()) {
    out += " payload=";
    for (size_t i = 0; i < payload.size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      out += payload[i].ToString();
    }
  }
  return out;
}

void Reporter::Report(ReportRecord record) {
  LogLevel level = LogLevel::kInfo;
  if (record.severity == Severity::kWarning) {
    level = LogLevel::kWarning;
  } else if (record.severity == Severity::kCritical) {
    level = LogLevel::kError;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    record.sequence = next_sequence_++;
    per_guardrail_[record.guardrail] += 1;
    per_kind_[static_cast<int>(record.kind)] += 1;
    records_.push_back(record);
    while (records_.size() > capacity_) {
      records_.pop_front();
    }
  }
  if (Logger::Global().Enabled(level)) {
    Logger::Global().Log(level, record.ToString());
  }
}

std::vector<ReportRecord> Reporter::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {records_.begin(), records_.end()};
}

std::vector<ReportRecord> Reporter::RecordsFor(const std::string& guardrail) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ReportRecord> out;
  for (const ReportRecord& record : records_) {
    if (record.guardrail == guardrail) {
      out.push_back(record);
    }
  }
  return out;
}

ReporterSnapshot Reporter::SnapshotCounters() const {
  std::lock_guard<std::mutex> lock(mu_);
  ReporterSnapshot snapshot;
  snapshot.next_sequence = next_sequence_;
  snapshot.per_guardrail.assign(per_guardrail_.begin(), per_guardrail_.end());
  std::sort(snapshot.per_guardrail.begin(), snapshot.per_guardrail.end());
  snapshot.per_kind.assign(per_kind_.begin(), per_kind_.end());
  std::sort(snapshot.per_kind.begin(), snapshot.per_kind.end());
  return snapshot;
}

void Reporter::RestoreCounters(const ReporterSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  next_sequence_ = snapshot.next_sequence;
  per_guardrail_.clear();
  for (const auto& [name, count] : snapshot.per_guardrail) {
    per_guardrail_[name] = count;
  }
  per_kind_.clear();
  for (const auto& [kind, count] : snapshot.per_kind) {
    per_kind_[kind] = count;
  }
}

void Reporter::RestoreRecord(ReportRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
  while (records_.size() > capacity_) {
    records_.pop_front();
  }
}

uint64_t Reporter::total_reports() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_sequence_;
}

uint64_t Reporter::CountFor(const std::string& guardrail) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = per_guardrail_.find(guardrail);
  return it == per_guardrail_.end() ? 0 : it->second;
}

uint64_t Reporter::CountOfKind(ReportKind kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = per_kind_.find(static_cast<int>(kind));
  return it == per_kind_.end() ? 0 : it->second;
}

void Reporter::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  per_guardrail_.clear();
  per_kind_.clear();
  next_sequence_ = 0;
}

}  // namespace osguard
