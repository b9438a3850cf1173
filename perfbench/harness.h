// The benchmark's repetition loop, tracing probes and result record.
//
// A workload is a class with a fixed, seeded input set and four steps:
//
//   Setup(samples)     builds the system and appends one or more timed
//                      set-up samples; a workload may build several times
//                      and keep the last system.
//   events()           the number of events in the timed phase.
//   Deliver(i, probe)  delivers event i: Kernel::Run up to the event's time,
//                      then the event's own call. The loop is closed: the
//                      next event goes out when this call returns.
//   Finish()           untimed tail of the run; then Check(traced) returns
//                      the output checks and the exact counts read from
//                      public stats.
//
// RunReps repeats set-up + timed phase until the run's time is used up.
// Every repetition delivers the same events and does the same work, so the
// end-to-end timings take, for each event, its fastest delivery over the
// untraced repetitions (BestOfReps), and scale it to a reference host speed
// measured by HostProbeNs; see README.md for why. The traced probe records a
// span around every public call a workload makes into a layer; the untraced
// probe compiles to nothing, so end-to-end numbers carry no tracing cost.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One layer per public call the workloads make; kEvent is the root span.
enum Layer : uint8_t {
  kEvent,       // whole delivery of one event
  kSimRun,      // Kernel::Run
  kBlkSubmit,   // BlockLayer::SubmitIo
  kPredict,     // IoSubmitPolicy::PredictSlow (forwarding policy)
  kAdmit,       // AgentGovernor::Process
  kCallout,     // Engine::OnFunctionCall, Kernel::Callout
  kSessionEnd,  // Kernel::OnSessionEnd
  kLayerCount,
};

// Untraced probe: every hook is a no-op the compiler removes.
struct NoTrace {
  static constexpr bool kTracing = false;
  void BeginEvent(int64_t) {}
  void EndEvent(int64_t) {}
  template <class F>
  decltype(auto) Time(Layer, F&& f) {
    return f();
  }
  void AddPlaneNs(int64_t) {}
};

// Traced probe. Spans (event id, layer, start, end, parent) stay in memory
// until the phase ends; Reduce() then turns them into self times, a span's
// duration minus the spans it directly contains.
class SpanTrace {
 public:
  static constexpr bool kTracing = true;

  struct Totals {
    std::array<int64_t, kLayerCount> self_ns{};
    // Engine clock (EngineStats::total_wall_ns) accrued inside Kernel::Run:
    // TIMER evaluations, which belong to the guardrail plane.
    int64_t plane_in_run_ns = 0;
    uint64_t events = 0;
  };

  explicit SpanTrace(size_t expected_spans) { spans_.reserve(expected_spans); }

  void BeginEvent(int64_t start) {
    open_ = Push(kEvent, start);
    ++events_;
  }
  void EndEvent(int64_t end) {
    spans_[open_].end = end;
    open_ = kNone;
  }
  template <class F>
  decltype(auto) Time(Layer layer, F&& f) {
    struct Closer {
      SpanTrace* trace;
      uint32_t span;
      ~Closer() { trace->Close(span); }
    } closer{this, Push(layer, NowNs())};
    open_ = closer.span;
    return f();
  }
  void AddPlaneNs(int64_t ns) { plane_in_run_ns_ += ns; }

  Totals Reduce() const;

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  struct Span {
    int64_t start;
    int64_t end;
    uint32_t event;
    uint32_t parent;
    Layer layer;
  };

  uint32_t Push(Layer layer, int64_t start) {
    spans_.push_back(Span{start, 0, events_, open_, layer});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void Close(uint32_t span) {
    spans_[span].end = NowNs();
    open_ = spans_[span].parent;
  }

  std::vector<Span> spans_;
  uint32_t open_ = kNone;
  uint32_t events_ = 0;
  int64_t plane_in_run_ns_ = 0;
};

// One set-up sample, with the parts the per-layer metrics name.
struct SetupSample {
  int64_t total_ns = 0;
  int64_t train_ns = 0;    // TrainLinnosModel
  int64_t load_ns = 0;     // Kernel::LoadGuardrails
  int64_t recover_ns = 0;  // Kernel::Reboot after Kernel::Panic
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

// What a repetition leaves behind once its phase has ended.
struct Outcome {
  std::vector<Check> checks;
  // Exact for a given seed: every repetition, traced or not, must agree.
  std::map<std::string, double> counts;
  // Readings of the program's own clocks; they differ between repetitions.
  std::map<std::string, double> gauges;
  uint64_t failures = 0;  // failed operations (errors, dispatch, snapshot, load)
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string specs_dir = "specs";
  std::string state_dir;  // scratch space for workloads that persist state
};

struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t reps = 0;
  std::vector<Check> checks;
  std::map<std::string, Metric> metrics;
};

// Each event's fastest delivery over the untraced repetitions. Host
// interference only ever adds time, and on a shared host it comes and goes
// faster than a repetition runs, so an event's fastest delivery over a dozen
// or more repetitions is its cost with the least interference.
class BestOfReps {
 public:
  // Starts a repetition that delivers `events` events.
  void BeginRep(size_t events) {
    best_ns_.resize(events, INT64_MAX);
    ++reps_;
  }
  void Record(size_t event, int64_t ns) { best_ns_[event] = std::min(best_ns_[event], ns); }
  uint64_t deliveries() const { return reps_ * best_ns_.size(); }
  // Events per second, if every event took its fastest delivery.
  double EventsPerSecond() const;
  // Nearest-rank quantile (q in [0, 1]) of the fastest deliveries, in µs.
  double QuantileUs(double q) const;

 private:
  std::vector<int64_t> best_ns_;
  uint64_t reps_ = 0;
};

// Times a fixed chain of 100k dependent multiplies. Its time depends on the
// clock speed the host gives this CPU, not on the program under test; on a
// shared host that speed changes by up to 1.4x for minutes at a time.
int64_t HostProbeNs();
// HostProbeNs's fastest time on a quiet host. End-to-end timings are scaled
// by (fastest probe of the run) / kReferenceProbeNs.
constexpr double kReferenceProbeNs = 135000.0;

// Reduces repetitions to the printed metrics (harness.cc).
struct RepResult {
  bool traced = false;
  uint64_t events = 0;
  int64_t wall_ns = 0;
  SpanTrace::Totals totals;  // traced repetitions only
  Outcome outcome;
};
Report Summarize(const RunOptions& options, const std::vector<SetupSample>& setups,
                 const std::vector<RepResult>& reps, const BestOfReps& best,
                 int64_t probe_ns, uint64_t probes);

// Counts the log records the program formats, and writes none of them.
void InstallCountingLogSink();
uint64_t LogRecords();

// Repeats set-up + timed phase until `options.seconds` have passed (and at
// least a few repetitions ran). With tracing on, repetitions alternate
// between untraced and traced, so the tracing overhead is measured inside
// one process on the same inputs.
template <class W>
Report RunReps(const typename W::Inputs& inputs, const RunOptions& options) {
  constexpr int kMinReps = 3;
  constexpr int kProbesPerRep = 20;
  const int64_t deadline = NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  std::vector<SetupSample> setups;
  std::vector<RepResult> reps;
  BestOfReps best;
  int64_t probe_ns = INT64_MAX;  // fastest HostProbeNs of the run
  uint64_t probes = 0;
  for (int rep = 0;; ++rep) {
    const int untraced_reps = options.trace ? (rep + 1) / 2 : rep;
    if (NowNs() >= deadline && untraced_reps >= kMinReps &&
        (!options.trace || rep - untraced_reps >= kMinReps)) {
      break;
    }
    RepResult result;
    result.traced = options.trace && rep % 2 == 1;
    W workload(inputs, options, result.traced);
    workload.Setup(setups);
    result.events = workload.events();
    const uint64_t logs_before = LogRecords();
    auto deliver_all = [&](auto& probe) {
      int64_t previous = NowNs();
      const int64_t start = previous;
      for (size_t i = 0; i < result.events; ++i) {
        probe.BeginEvent(previous);
        workload.Deliver(i, probe);
        const int64_t now = NowNs();
        probe.EndEvent(now);
        if constexpr (!std::decay_t<decltype(probe)>::kTracing) {
          best.Record(i, now - previous);
        }
        previous = now;
      }
      result.wall_ns = previous - start;
    };
    if (result.traced) {
      SpanTrace trace(result.events * W::kSpansPerEvent);
      deliver_all(trace);
      result.totals = trace.Reduce();
    } else {
      NoTrace probe;
      best.BeginRep(result.events);
      deliver_all(probe);
      for (int p = 0; p < kProbesPerRep; ++p, ++probes) {
        probe_ns = std::min(probe_ns, HostProbeNs());
      }
    }
    workload.Finish();
    const uint64_t logs = LogRecords() - logs_before;
    result.outcome = workload.Check(result.traced);
    result.outcome.counts["actions.log_records"] = static_cast<double>(logs);
    reps.push_back(std::move(result));
  }
  return Summarize(options, setups, reps, best, probe_ns, probes);
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
