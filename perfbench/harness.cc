#include "perfbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <utility>

#include "src/support/logging.h"

namespace perfbench {
namespace {

std::atomic<uint64_t> g_log_records{0};

// Linearly interpolated quantile (q in [0, 1]); 0 for no values.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lower = static_cast<size_t>(pos);
  const size_t upper = std::min(lower + 1, values.size() - 1);
  return values[lower] + (pos - static_cast<double>(lower)) * (values[upper] - values[lower]);
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

std::string CountUnit(const std::string& name) {
  auto ends_with = [&](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (ends_with("_share")) {
    return "share";
  }
  if (ends_with("_per_event")) {
    return "1/event";
  }
  if (ends_with("_per_eval")) {
    return "1/eval";
  }
  if (ends_with("bytes_per_frame")) {
    return "B/frame";
  }
  if (ends_with("_bytes")) {
    return "B";
  }
  if (ends_with("_s")) {
    return "s";
  }
  return "count";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace

double BestOfReps::EventsPerSecond() const {
  int64_t total_ns = 0;
  for (const int64_t ns : best_ns_) {
    total_ns += ns;
  }
  return total_ns > 0
             ? static_cast<double>(best_ns_.size()) / (static_cast<double>(total_ns) / 1e9)
             : 0.0;
}

double BestOfReps::QuantileUs(double q) const {
  if (best_ns_.empty()) {
    return 0.0;
  }
  std::vector<int64_t> sorted = best_ns_;
  const size_t rank =
      std::min(sorted.size() - 1, static_cast<size_t>(q * static_cast<double>(sorted.size())));
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(rank),
                   sorted.end());
  return static_cast<double>(sorted[rank]) / 1e3;
}

int64_t HostProbeNs() {
  uint64_t x = 1;
  const int64_t start = NowNs();
  for (int i = 0; i < 100000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    asm volatile("" : "+r"(x));  // one multiply after another, never folded
  }
  return NowNs() - start;
}

SpanTrace::Totals SpanTrace::Reduce() const {
  Totals totals;
  for (const Span& span : spans_) {
    const int64_t duration = span.end - span.start;
    totals.self_ns[span.layer] += duration;
    if (span.parent != kNone) {
      totals.self_ns[spans_[span.parent].layer] -= duration;
    }
  }
  totals.plane_in_run_ns = plane_in_run_ns_;
  totals.events = events_;
  return totals;
}

void InstallCountingLogSink() {
  osguard::Logger::Global().SetSinks(
      {[](osguard::LogLevel, std::string_view) { g_log_records.fetch_add(1); }});
}

uint64_t LogRecords() { return g_log_records.load(); }

Report Summarize(const RunOptions& options, const std::vector<SetupSample>& setups,
                 const std::vector<RepResult>& reps, const BestOfReps& best,
                 int64_t probe_ns, uint64_t probes) {
  Report report;
  report.reps = reps.size();
  const double peak_rss_mb = PeakRssMb();  // before this summary allocates
  const Outcome& first = reps.front().outcome;

  std::map<std::string, size_t> check_index;
  std::vector<double> eps, traced_eps;  // whole-phase rates per repetition
  std::map<std::string, std::vector<double>> gauges;
  std::array<std::vector<double>, kLayerCount> layer_us;
  std::vector<double> substrate, inference, plane;
  bool counts_equal = true;
  std::string counts_detail;
  for (const RepResult& rep : reps) {
    report.attempted += rep.events;
    report.failed += rep.outcome.failures;
    for (const Check& check : rep.outcome.checks) {
      auto [it, inserted] = check_index.try_emplace(check.name, report.checks.size());
      if (inserted) {
        report.checks.push_back(check);
      } else if (!check.ok && report.checks[it->second].ok) {
        report.checks[it->second] = check;
      }
    }
    for (const auto& [name, value] : rep.outcome.counts) {
      auto it = first.counts.find(name);
      if (it == first.counts.end() || it->second != value) {
        counts_equal = false;
        counts_detail = name;
      }
    }
    if (rep.outcome.counts.size() != first.counts.size()) {
      counts_equal = false;
    }
    for (const auto& [name, value] : rep.outcome.gauges) {
      gauges[name].push_back(value);
    }
    const double rate =
        rep.wall_ns > 0 ? static_cast<double>(rep.events) / (static_cast<double>(rep.wall_ns) / 1e9)
                        : 0.0;
    if (!rep.traced) {
      eps.push_back(rate);
      continue;
    }
    traced_eps.push_back(rate);
    const SpanTrace::Totals& t = rep.totals;
    const double events = static_cast<double>(std::max<uint64_t>(t.events, 1));
    int64_t total_ns = 0;
    for (int layer = 0; layer < kLayerCount; ++layer) {
      layer_us[layer].push_back(static_cast<double>(t.self_ns[layer]) / events / 1e3);
      total_ns += t.self_ns[layer];
    }
    const double total = static_cast<double>(std::max<int64_t>(total_ns, 1));
    const double inference_ns = static_cast<double>(t.self_ns[kPredict]);
    const double plane_ns = static_cast<double>(t.self_ns[kAdmit] + t.self_ns[kCallout] +
                                                t.self_ns[kSessionEnd] + t.plane_in_run_ns);
    inference.push_back(inference_ns / total);
    plane.push_back(plane_ns / total);
    substrate.push_back((total - inference_ns - plane_ns) / total);
  }
  report.checks.push_back(Check{"counts identical across repetitions", counts_equal,
                                counts_equal ? "" : "first mismatch: " + counts_detail});
  for (const Check& check : report.checks) {
    report.correct = report.correct && check.ok;
  }

  auto setup_quantile = [&](int64_t SetupSample::*field, double scale, double q) {
    std::vector<double> values;
    for (const SetupSample& sample : setups) {
      if (sample.*field > 0) {
        values.push_back(static_cast<double>(sample.*field) / scale);
      }
    }
    return Metric{Quantile(values, q), "", values.size()};
  };
  auto put = [&](const std::string& name, Metric metric, const std::string& unit) {
    metric.unit = unit;
    report.metrics[name] = metric;
  };

  if (!options.trace) {
    // Per-event bests and the fastest set-up sample, at the reference host
    // speed (README.md). The sample count of an event timing is the
    // deliveries its bests were taken over.
    const double slowdown = static_cast<double>(probe_ns) / kReferenceProbeNs;
    put("host.slowdown", {slowdown, "", probes}, "ratio");
    put("events_per_s", {best.EventsPerSecond() * slowdown, "", best.deliveries()}, "1/s");
    put("event_p50_us", {best.QuantileUs(0.50) / slowdown, "", best.deliveries()}, "us");
    put("event_p99_us", {best.QuantileUs(0.99) / slowdown, "", best.deliveries()}, "us");
    Metric setup = setup_quantile(&SetupSample::total_ns, 1e9, 0.0);
    setup.value /= slowdown;
    put("setup_s", setup, "s");
    put("peak_rss_mb", {peak_rss_mb, "", 1}, "MB");
    return report;
  }

  const uint64_t traced = traced_eps.size();
  auto layer = [&](Layer l) { return Metric{Median(layer_us[l]), "", traced}; };
  put("linnos.predict_us", layer(kPredict), "us");
  put("sim.blk_submit_us", layer(kBlkSubmit), "us");
  put("sim.run_us", layer(kSimRun), "us");
  put("actions.admit_us", layer(kAdmit), "us");
  put("runtime.callout_us", layer(kCallout), "us");
  put("ml.train_s", setup_quantile(&SetupSample::train_ns, 1e9, 0.5), "s");
  put("dsl.load_ms", setup_quantile(&SetupSample::load_ns, 1e6, 0.5), "ms");
  put("persist.recover_ms", setup_quantile(&SetupSample::recover_ns, 1e6, 0.5), "ms");
  put("event.substrate_share", {Median(substrate), "", traced}, "share");
  put("event.inference_share", {Median(inference), "", traced}, "share");
  put("event.plane_share", {Median(plane), "", traced}, "share");
  put("trace.overhead_share",
      {eps.empty() || traced_eps.empty() ? 0.0 : 1.0 - Median(traced_eps) / Median(eps), "",
       traced},
      "share");

  // Per-session rather than per-event: Kernel::OnSessionEnd runs once per
  // retiring session.
  const double sessions = first.counts.count("agent.session_ends") != 0
                              ? first.counts.at("agent.session_ends")
                              : 0.0;
  const double events = static_cast<double>(reps.front().events);
  const double session_end_us =
      sessions > 0.0 ? Median(layer_us[kSessionEnd]) * events / sessions : 0.0;
  put("runtime.session_end_us", {session_end_us, "", traced}, "us");
  const double reference_callout_us = Median(gauges["persist.reference_callout_us"]);
  put("persist.commit_us",
      {reference_callout_us > 0.0 ? Median(layer_us[kCallout]) - reference_callout_us : 0.0, "",
       traced},
      "us");
  put("runtime.vm_wall_us", {Median(gauges["runtime.vm_wall_us"]), "", reps.size()}, "us");
  for (const auto& [name, value] : first.counts) {
    put(name, {value, "", reps.size()}, CountUnit(name));
  }
  return report;
}

}  // namespace perfbench
