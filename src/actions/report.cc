#include "src/actions/report.h"

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
  // The log line is formatted before the record moves into the ring, where
  // an eviction at capacity may pop it, and logged after the record commits.
  const bool log = Logger::Global().Enabled(level);
  std::string line;
  if (log) {
    line = record.ToString();
  }
  record.sequence = next_sequence_++;
  per_guardrail_[record.guardrail] += 1;
  per_kind_[static_cast<int>(record.kind)] += 1;
  records_.push_back(std::move(record));
  while (records_.size() > capacity_) {
    records_.pop_front();
  }
  if (log) {
    Logger::Global().Log(level, line);
  }
}

std::vector<ReportRecord> Reporter::Records() const {
  return {records_.begin(), records_.end()};
}

std::vector<ReportRecord> Reporter::RecordsFor(const std::string& guardrail) const {
  std::vector<ReportRecord> out;
  for (const ReportRecord& record : records_) {
    if (record.guardrail == guardrail) {
      out.push_back(record);
    }
  }
  return out;
}

void Reporter::RestoreRecord(ReportRecord record) {
  records_.push_back(std::move(record));
  while (records_.size() > capacity_) {
    records_.pop_front();
  }
}

uint64_t Reporter::total_reports() const {
  return next_sequence_;
}

uint64_t Reporter::CountFor(const std::string& guardrail) const {
  auto it = per_guardrail_.find(guardrail);
  return it == per_guardrail_.end() ? 0 : it->second;
}

uint64_t Reporter::CountOfKind(ReportKind kind) const {
  auto it = per_kind_.find(static_cast<int>(kind));
  return it == per_kind_.end() ? 0 : it->second;
}

void Reporter::Clear() {
  records_.clear();
  per_guardrail_.clear();
  per_kind_.clear();
  next_sequence_ = 0;
}

}  // namespace osguard
