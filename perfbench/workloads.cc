#include "perfbench/workloads.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "src/linnos/harness.h"
#include "src/linnos/policy.h"
#include "src/persist/persist.h"
#include "src/sim/blk_layer.h"
#include "src/sim/kernel.h"
#include "src/sim/ssd_device.h"
#include "src/wl/iogen.h"
#include "src/wl/sessiongen.h"
#include "src/wl/stormgen.h"

namespace perfbench {
namespace {

using osguard::AgentAdmitVerdict;
using osguard::Duration;
using osguard::EngineOptions;
using osguard::Kernel;
using osguard::SimTime;

// Derives an independent 64-bit seed from the workload seed (splitmix64).
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// Kernel::Run up to `at`. Traced, it is a sim.run span, and the engine clock
// accrued inside it (TIMER evaluations) is credited to the guardrail plane.
template <class Probe>
void RunTo(Kernel& kernel, SimTime at, Probe& probe) {
  if constexpr (Probe::kTracing) {
    const int64_t before = kernel.engine().stats().total_wall_ns;
    probe.Time(kSimRun, [&] { kernel.Run(at); });
    probe.AddPlaneNs(kernel.engine().stats().total_wall_ns - before);
  } else {
    kernel.Run(at);
  }
}

Check MakeCheck(std::string name, bool ok, std::string detail = "") {
  return Check{std::move(name), ok, ok ? "" : std::move(detail)};
}

// Public counters of the kernels a repetition drives, summed. Cumulative
// counters are taken as the difference across the timed phase; levels
// (live keys, bytes) are read at its end.
struct Tally {
  uint64_t evaluations = 0;
  uint64_t change_firings = 0;
  uint64_t timer_firings = 0;
  uint64_t errors = 0;
  int64_t insns = 0;
  int64_t helpers = 0;
  int64_t wall_ns = 0;
  uint64_t reports = 0;
  uint64_t action_failures = 0;
  uint64_t reclaimed = 0;
  uint64_t sheds = 0;
  uint64_t transitions = 0;
  uint64_t critical_sheds = 0;
  uint64_t skipped_evals = 0;
  uint64_t budget_aborts = 0;
  uint64_t live_keys = 0;
  uint64_t approx_bytes = 0;
  uint64_t stale_hits = 0;

  void Add(Kernel& kernel) {
    osguard::Engine& engine = kernel.engine();
    const osguard::EngineStats stats = engine.stats();
    evaluations += stats.evaluations;
    change_firings += stats.change_firings;
    timer_firings += stats.timer_firings;
    errors += stats.errors;
    wall_ns += stats.total_wall_ns;
    insns += engine.vm().stats().insns_executed;
    helpers += engine.vm().stats().helper_calls;
    reports += engine.reporter().total_reports();
    action_failures += engine.dispatcher().stats().failures;
    const osguard::RetentionStats& retention = engine.retention().stats();
    reclaimed += retention.reclaimed_idle + retention.reclaimed_quota;
    const osguard::GovernorStats& governor = engine.governor().stats();
    sheds += governor.sheds_besteffort + governor.sheds_standard;
    transitions += governor.transitions;
    critical_sheds += governor.critical_sheds;
    skipped_evals += engine.supervisor().stats().skipped_evals;
    budget_aborts += engine.supervisor().stats().budget_aborts;
    live_keys += kernel.store().live_key_count();
    approx_bytes += kernel.store().approx_bytes();
    stale_hits += kernel.store().stale_hits();
  }

  // Counters accrued since `base` (levels stay as they are).
  Tally Since(const Tally& base) const {
    Tally d = *this;
    d.evaluations -= base.evaluations;
    d.change_firings -= base.change_firings;
    d.timer_firings -= base.timer_firings;
    d.errors -= base.errors;
    d.insns -= base.insns;
    d.helpers -= base.helpers;
    d.wall_ns -= base.wall_ns;
    d.reports -= base.reports;
    d.action_failures -= base.action_failures;
    d.reclaimed -= base.reclaimed;
    d.sheds -= base.sheds;
    d.transitions -= base.transitions;
    d.critical_sheds -= base.critical_sheds;
    d.skipped_evals -= base.skipped_evals;
    d.budget_aborts -= base.budget_aborts;
    return d;
  }

  // Writes every count the benchmark reports, zero where the workload's
  // layers do no work, so every workload prints the same names.
  void Fill(uint64_t events, Outcome& out) const {
    auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
    const double evals = static_cast<double>(evaluations);
    auto& c = out.counts;
    c["runtime.evals_per_event"] = ratio(evals, static_cast<double>(events));
    c["runtime.onchange_per_event"] =
        ratio(static_cast<double>(change_firings), static_cast<double>(events));
    c["runtime.timer_firings"] = static_cast<double>(timer_firings);
    c["runtime.errors"] = static_cast<double>(errors);
    c["vm.insns_per_eval"] = ratio(static_cast<double>(insns), evals);
    c["vm.helpers_per_eval"] = ratio(static_cast<double>(helpers), evals);
    c["actions.reports"] = static_cast<double>(reports);
    c["actions.failures"] = static_cast<double>(action_failures);
    c["actions.admitted_share"] = 0.0;
    c["governor.shed_share"] = ratio(static_cast<double>(sheds), static_cast<double>(sheds) + evals);
    c["governor.transitions"] = static_cast<double>(transitions);
    c["governor.critical_sheds"] = static_cast<double>(critical_sheds);
    c["supervisor.skipped_evals"] = static_cast<double>(skipped_evals);
    c["supervisor.budget_aborts"] = static_cast<double>(budget_aborts);
    c["store.live_keys"] = static_cast<double>(live_keys);
    c["store.approx_bytes"] = static_cast<double>(approx_bytes);
    c["store.stale_hits"] = static_cast<double>(stale_hits);
    c["retention.reclaimed"] = static_cast<double>(reclaimed);
    c["persist.frames"] = 0.0;
    c["persist.bytes_per_frame"] = 0.0;
    c["persist.snapshots"] = 0.0;
    c["sim.model_decisions"] = 0.0;
    c["sim.false_submits"] = 0.0;
    c["sim.redirects"] = 0.0;
    out.gauges["runtime.vm_wall_us"] = ratio(static_cast<double>(wall_ns) / 1e3, evals);
    out.failures += errors + action_failures;
  }
};

// ---------------------------------------------------------------------------
// linnos_drift: Fig. 2's with-guardrail configuration, five drift traces per
// repetition: 300k I/Os, and still about 30 repetitions in a run.

constexpr int kLinnosTrials = 5;

struct LinnosInputs {
  explicit LinnosInputs(const RunOptions& options) {
    for (int t = 0; t < kLinnosTrials; ++t) {
      osguard::Figure2Options trial;
      // The drift comes two thirds of the way in rather than halfway, so the
      // model decides most I/Os and the median event is one it decided.
      trial.after_drift = osguard::Seconds(10);
      trial.trace_seed = Mix(options.seed, t);
      trial.device.seed = Mix(options.seed, 100 + t);
      // The trace RunLinnosConfiguration generates from these options.
      osguard::IoPhase phase;
      phase.duration = trial.before_drift + trial.after_drift;
      phase.arrivals_per_sec = trial.arrivals_per_sec;
      phase.write_fraction = 0.05;
      phase.zipf_skew = 0.6;
      traces.push_back(osguard::IoTraceGenerator({phase}, trial.trace_seed).Generate());
      ios += traces.back().size();
      trials.push_back(trial);
    }
    // Offline training as RunFigure2Experiment does it: a clean
    // baseline-phase trace on its own seed.
    const osguard::Figure2Options& first = trials.front();
    training.device = first.device;
    training.blk = first.blk;
    training.trace_seed = first.trace_seed + 1000;
    training.duration = std::max<Duration>(first.before_drift, osguard::Seconds(10));
    training.arrivals_per_sec = first.arrivals_per_sec;
    training_phase =
        osguard::MakeDriftPhases(first.before_drift, first.after_drift, first.arrivals_per_sec)[0];
  }

  std::vector<osguard::Figure2Options> trials;
  std::vector<std::vector<osguard::IoRequest>> traces;
  size_t ios = 0;
  osguard::IoPhase training_phase;
  osguard::TrainingRunOptions training;
  // The trained model and how many repetitions trained one.
  mutable std::shared_ptr<osguard::LinnosModel> model;
  mutable int setups = 0;
  // RunLinnosConfiguration's results for the same options and model,
  // computed by the first repetition.
  mutable std::vector<osguard::LinnosRunResult> reference;
};

// Registered as "linnos_model" in traced repetitions: forwards every
// prediction to the real policy inside a linnos.predict span.
class TracedPolicy : public osguard::IoSubmitPolicy {
 public:
  explicit TracedPolicy(std::shared_ptr<osguard::LinnosSubmitPolicy> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  bool is_learned() const override { return inner_->is_learned(); }
  Duration inference_cost() const override { return inner_->inference_cost(); }
  bool PredictSlow(const osguard::IoContext& context) override {
    return trace_->Time(kPredict, [&] { return inner_->PredictSlow(context); });
  }
  void set_trace(SpanTrace* trace) { trace_ = trace; }

 private:
  std::shared_ptr<osguard::LinnosSubmitPolicy> inner_;
  SpanTrace* trace_ = nullptr;
};

class LinnosDrift {
 public:
  using Inputs = LinnosInputs;
  static constexpr size_t kSpansPerEvent = 4;
  static constexpr int kSetupSamples = 10;

  LinnosDrift(const Inputs& inputs, const RunOptions&, bool traced)
      : in_(inputs), traced_(traced) {}

  // One sample: training, then a kernel per drift trace with its devices,
  // block layer, policy and the Listing-2 guardrail. Training takes about as
  // long as a timed phase and is deterministic, so only the first
  // kSetupSamples repetitions train; later ones reuse that model and build
  // fresh kernels without taking a sample.
  void Setup(std::vector<SetupSample>& samples) {
    SetupSample sample;
    const int64_t start = NowNs();
    const bool train = in_.setups < kSetupSamples;
    if (train) {
      auto model = osguard::TrainLinnosModel(in_.training_phase, in_.training,
                                             in_.trials.front().model);
      sample.train_ns = NowNs() - start;
      if (!model.ok()) {
        setup_errors_.push_back("training: " + model.status().ToString());
        return;
      }
      in_.model = *model;
    }
    model_ = in_.model;
    for (const osguard::Figure2Options& options : in_.trials) {
      trials_.push_back(BuildTrial(options, sample));
    }
    sample.total_ns = NowNs() - start;
    if (train) {
      samples.push_back(sample);
      ++in_.setups;
    }
    for (const auto& trial : trials_) {
      base_.Add(*trial->kernel);
    }
  }

  size_t events() const { return trials_.size() == in_.trials.size() ? in_.ios : 0; }

  template <class Probe>
  void Deliver(size_t i, Probe& probe) {
    if (i - offset_ == in_.traces[current_].size()) {
      offset_ = i;
      ++current_;
    }
    Trial& trial = *trials_[current_];
    const osguard::IoRequest& request = in_.traces[current_][i - offset_];
    RunTo(*trial.kernel, request.at, probe);
    if constexpr (Probe::kTracing) {
      trial.traced_policy->set_trace(&probe);
      probe.Time(kBlkSubmit, [&] { trial.blk->SubmitIo(request.lba, request.is_write); });
    } else {
      trial.blk->SubmitIo(request.lba, request.is_write);
    }
  }

  // RunLinnosConfiguration runs the timeline to the end of the trace.
  void Finish() {
    for (size_t t = 0; t < trials_.size(); ++t) {
      trials_[t]->kernel->Run(in_.trials[t].before_drift + in_.trials[t].after_drift);
    }
  }

  Outcome Check(bool /*traced*/) {
    Outcome out;
    out.failures += setup_errors_.size();
    out.checks.push_back(MakeCheck("linnos_drift set-up succeeded", setup_errors_.empty(),
                                   setup_errors_.empty() ? "" : setup_errors_.front()));
    if (!setup_errors_.empty()) {
      return out;
    }
    if (in_.reference.empty()) {
      for (const osguard::Figure2Options& options : in_.trials) {
        auto reference =
            osguard::RunLinnosConfiguration(options, model_, osguard::kListing2Guardrail);
        in_.reference.push_back(reference.ok() ? *reference : osguard::LinnosRunResult{});
      }
    }
    Tally tally;
    osguard::BlockLayerStats blk;
    std::string trip_detail;
    std::string match_detail;
    for (size_t t = 0; t < trials_.size(); ++t) {
      Trial& trial = *trials_[t];
      tally.Add(*trial.kernel);
      const osguard::BlockLayerStats& stats = trial.blk->stats();
      blk.model_decisions += stats.model_decisions;
      blk.false_submits += stats.false_submits;
      blk.redirects += stats.redirects;
      double trigger_s = -1.0;
      for (const osguard::ReportRecord& record : trial.kernel->engine().reporter().Records()) {
        if (record.kind == osguard::ReportKind::kViolation) {
          trigger_s = osguard::ToSeconds(record.time);
          break;
        }
      }
      const bool ml_enabled = trial.kernel->store()
                                  .LoadOr("blk.ml_enabled", osguard::Value(true))
                                  .AsBool()
                                  .value_or(true);
      const double drift_s = osguard::ToSeconds(in_.trials[t].before_drift);
      if (trigger_s <= drift_s || trigger_s > drift_s + 2.0 || ml_enabled) {
        trip_detail = "trace " + std::to_string(t) + ": trigger at " +
                      std::to_string(trigger_s) + " s, drift at " + std::to_string(drift_s) +
                      " s, ml_enabled=" + (ml_enabled ? "true" : "false");
      }
      const osguard::LinnosRunResult& reference = in_.reference[t];
      if (trigger_s != reference.trigger_time_s ||
          stats.false_submits != reference.blk.false_submits) {
        match_detail = "trace " + std::to_string(t) + ": trigger " + std::to_string(trigger_s) +
                       " s vs " + std::to_string(reference.trigger_time_s) +
                       " s, false submits " + std::to_string(stats.false_submits) + " vs " +
                       std::to_string(reference.blk.false_submits);
      }
    }
    out.checks.push_back(MakeCheck("guardrail trips within 2 s of the drift and disables the model",
                                   trip_detail.empty(), trip_detail));
    out.checks.push_back(MakeCheck("trigger time and false submits match RunLinnosConfiguration",
                                   match_detail.empty(), match_detail));
    tally.Since(base_).Fill(in_.ios, out);
    out.counts["sim.model_decisions"] = static_cast<double>(blk.model_decisions);
    out.counts["sim.false_submits"] = static_cast<double>(blk.false_submits);
    out.counts["sim.redirects"] = static_cast<double>(blk.redirects);
    return out;
  }

 private:
  struct Trial {
    std::unique_ptr<Kernel> kernel;
    std::unique_ptr<osguard::SsdDevice> primary;
    std::unique_ptr<osguard::SsdDevice> replica;
    std::unique_ptr<osguard::BlockLayer> blk;
    std::shared_ptr<TracedPolicy> traced_policy;
  };

  // What RunLinnosConfiguration builds for a run with a model and the
  // Listing-2 guardrail (no chaos, no retrain loop).
  std::unique_ptr<Trial> BuildTrial(const osguard::Figure2Options& options, SetupSample& sample) {
    auto trial = std::make_unique<Trial>();
    trial->kernel = std::make_unique<Kernel>(EngineOptions{});
    osguard::SsdConfig replica_config = options.device;
    replica_config.seed = options.device.seed + 1;
    trial->primary = std::make_unique<osguard::SsdDevice>("primary", options.device);
    trial->replica = std::make_unique<osguard::SsdDevice>("replica", replica_config);
    trial->blk = std::make_unique<osguard::BlockLayer>(*trial->kernel, trial->primary.get(),
                                                       trial->replica.get(), options.blk);
    auto policy = std::make_shared<osguard::LinnosSubmitPolicy>(model_);
    std::shared_ptr<osguard::IoSubmitPolicy> bound = policy;
    if (traced_) {
      trial->traced_policy = std::make_shared<TracedPolicy>(policy);
      bound = trial->traced_policy;
    }
    Kernel& kernel = *trial->kernel;
    osguard::Status status = kernel.registry().Register(bound);
    if (status.ok()) {
      status = kernel.registry().BindSlot(options.blk.policy_slot, bound->name());
    }
    const int64_t load_start = NowNs();
    if (status.ok()) {
      status = kernel.LoadGuardrails(osguard::kListing2Guardrail);
    }
    sample.load_ns += NowNs() - load_start;
    if (!status.ok()) {
      setup_errors_.push_back(status.ToString());
    }
    osguard::SsdDevice* primary = trial->primary.get();
    const double factor = options.drift_gc_factor;
    kernel.queue().ScheduleAt(options.before_drift, [primary, factor](SimTime) {
      primary->ScaleGcPressure(factor);
    });
    return trial;
  }

  const Inputs& in_;
  const bool traced_;
  std::shared_ptr<osguard::LinnosModel> model_;
  std::vector<std::unique_ptr<Trial>> trials_;
  std::vector<std::string> setup_errors_;
  Tally base_;
  size_t current_ = 0;
  size_t offset_ = 0;
};

// ---------------------------------------------------------------------------
// agent_churn and agent_durable: bursty agent sessions with churn, governed
// by specs/agent_governance.osg and specs/bounded_store.osg.

struct Verdicts {
  uint64_t allowed = 0;
  uint64_t denied = 0;
  uint64_t throttled = 0;
  uint64_t killed = 0;

  void Add(AgentAdmitVerdict verdict) {
    switch (verdict) {
      case AgentAdmitVerdict::kAllow:
        ++allowed;
        break;
      case AgentAdmitVerdict::kDeny:
        ++denied;
        break;
      case AgentAdmitVerdict::kThrottle:
        ++throttled;
        break;
      case AgentAdmitVerdict::kKill:
        ++killed;
        break;
    }
  }
  uint64_t calls() const { return allowed + denied + throttled + killed; }
  bool operator==(const Verdicts&) const = default;
  std::string ToString() const {
    return std::to_string(allowed) + "/" + std::to_string(denied) + "/" +
           std::to_string(throttled) + "/" + std::to_string(killed);
  }
};

struct AgentInputs {
  struct Event {
    SimTime at;
    uint32_t index;  // into trace.calls, or trace.ends when `end`
    bool end;
  };

  explicit AgentInputs(const RunOptions& options)
      : governance(ReadFile(options.specs_dir + "/agent_governance.osg")),
        bounded(ReadFile(options.specs_dir + "/bounded_store.osg")) {
    osguard::SessionWorkloadOptions workload;
    workload.duration = osguard::Seconds(10);
    workload.sessions_per_sec = 200.0;
    trace = osguard::SessionCallGenerator(workload, Mix(options.seed, 1)).GenerateChurn();
    // The generator draws uniform 64-bit fingerprints, so the
    // net-fingerprint guardrail would kill every session at its first
    // network call. Fold all but 1 in 997 into the catalogued 32-bit band,
    // so most calls stay on the admitted path and a few still trip it.
    for (osguard::agent::ToolCallEvent& call : trace.calls) {
      if (call.tool == osguard::agent::ToolClass::kNet && call.fingerprint % 997 != 0) {
        call.fingerprint &= 0xffffffffull;
      }
    }
    // One time-ordered stream; a session end goes before a call at the
    // same time.
    size_t next_end = 0;
    for (uint32_t i = 0; i < trace.calls.size(); ++i) {
      while (next_end < trace.ends.size() && trace.ends[next_end].at <= trace.calls[i].at) {
        events.push_back(Event{trace.ends[next_end].at, static_cast<uint32_t>(next_end), true});
        ++next_end;
      }
      events.push_back(Event{trace.calls[i].at, i, false});
    }
    for (; next_end < trace.ends.size(); ++next_end) {
      events.push_back(Event{trace.ends[next_end].at, static_cast<uint32_t>(next_end), true});
    }
    // The governance spec's guardrail names, each of which must trip.
    osguard::FeatureStore store;
    osguard::PolicyRegistry registry;
    osguard::Engine engine(&store, &registry);
    if (engine.LoadSource(governance).ok()) {
      governance_guardrails = engine.MonitorNames();
    }
  }

  std::string governance;
  std::string bounded;
  osguard::SessionChurnTrace trace;
  std::vector<Event> events;
  std::vector<std::string> governance_guardrails;
};

osguard::Status LoadAgentSpecs(Kernel& kernel, const AgentInputs& in, SetupSample& sample) {
  const int64_t start = NowNs();
  osguard::Status status = kernel.LoadGuardrails(in.governance);
  if (status.ok()) {
    status = kernel.LoadGuardrails(in.bounded);
  }
  sample.load_ns = NowNs() - start;
  return status;
}

// Delivers one agent event: a tool call through Kernel::OnToolCall or a
// session end through Kernel::OnSessionEnd. Traced, a tool call is
// AgentGovernor::Process then Engine::OnFunctionCall, which is exactly what
// OnToolCall does with chaos and sharding off.
template <class Probe>
void DeliverAgentEvent(Kernel& kernel, const AgentInputs& in, const AgentInputs::Event& event,
                       Probe& probe, Verdicts& verdicts, uint64_t& reclaimed) {
  RunTo(kernel, event.at, probe);
  if (event.end) {
    const uint64_t session = in.trace.ends[event.index].session;
    reclaimed += probe.Time(kSessionEnd, [&] { return kernel.OnSessionEnd(session); });
    return;
  }
  const osguard::agent::ToolCallEvent& call = in.trace.calls[event.index];
  if constexpr (Probe::kTracing) {
    const SimTime t = std::max(kernel.now(), call.at);
    verdicts.Add(probe.Time(kAdmit, [&] { return kernel.agent_governor().Process(call, t); }));
    probe.Time(kCallout,
               [&] { kernel.engine().OnFunctionCall(osguard::kAgentCalloutFunction, t); });
  } else {
    verdicts.Add(kernel.OnToolCall(call));
  }
}

// agent_churn's whole trace on an in-memory kernel, untimed: the reference
// verdicts agent_durable must reproduce. With `trace`, events from
// `traced_from` on are delivered under it.
Verdicts ReplayInMemory(const AgentInputs& in, size_t traced_from, SpanTrace* trace) {
  Kernel kernel;
  SetupSample unused;
  (void)LoadAgentSpecs(kernel, in, unused);
  Verdicts verdicts;
  uint64_t reclaimed = 0;
  NoTrace untraced;
  for (size_t i = 0; i < in.events.size(); ++i) {
    if (trace != nullptr && i >= traced_from) {
      trace->BeginEvent(NowNs());
      DeliverAgentEvent(kernel, in, in.events[i], *trace, verdicts, reclaimed);
      trace->EndEvent(NowNs());
    } else {
      DeliverAgentEvent(kernel, in, in.events[i], untraced, verdicts, reclaimed);
    }
  }
  return verdicts;
}

// The checks and counts both agent workloads share: every guardrail of the
// governance spec trips, no read sees a reclaimed key's stale generation,
// and the verdict and session-end totals. Runs after Tally::Fill, which
// writes actions.admitted_share as 0.
void CheckAgentKernel(Kernel& kernel, const AgentInputs& in, const Verdicts& verdicts,
                      uint64_t session_ends, Outcome& out) {
  std::string untripped;
  for (const std::string& name : in.governance_guardrails) {
    const osguard::MonitorStats* stats = kernel.engine().FindStats(name);
    if (stats == nullptr || stats->action_firings == 0) {
      untripped += name + " ";
    }
  }
  out.checks.push_back(MakeCheck("every agent_governance.osg guardrail trips",
                                 !in.governance_guardrails.empty() && untripped.empty(),
                                 "untripped: " + untripped));
  out.checks.push_back(MakeCheck("no stale-generation reads", kernel.store().stale_hits() == 0,
                                 std::to_string(kernel.store().stale_hits()) + " stale hits"));
  out.counts["actions.admitted_share"] =
      static_cast<double>(verdicts.allowed) /
      static_cast<double>(std::max<uint64_t>(verdicts.calls(), 1));
  out.counts["agent.calls"] = static_cast<double>(verdicts.calls());
  out.counts["agent.allowed"] = static_cast<double>(verdicts.allowed);
  out.counts["agent.session_ends"] = static_cast<double>(session_ends);
}

// The whole trace through Kernel::OnToolCall and Kernel::OnSessionEnd on an
// in-memory kernel: admission, publication, FUNCTION and ONCHANGE monitors
// and retention do all the work.
class AgentChurn {
 public:
  using Inputs = AgentInputs;
  static constexpr size_t kSpansPerEvent = 4;
  // One build takes about 0.2 ms; the last one is kept.
  static constexpr int kSetupSamples = 25;

  AgentChurn(const Inputs& inputs, const RunOptions&, bool) : in_(inputs) {}

  void Setup(std::vector<SetupSample>& samples) {
    for (int s = 0; s < kSetupSamples; ++s) {
      kernel_.reset();
      SetupSample sample;
      const int64_t start = NowNs();
      kernel_ = std::make_unique<Kernel>();
      status_ = LoadAgentSpecs(*kernel_, in_, sample);
      sample.total_ns = NowNs() - start;
      samples.push_back(sample);
    }
    base_.Add(*kernel_);
  }

  size_t events() const { return status_.ok() ? in_.events.size() : 0; }

  template <class Probe>
  void Deliver(size_t i, Probe& probe) {
    DeliverAgentEvent(*kernel_, in_, in_.events[i], probe, verdicts_, session_reclaimed_);
  }

  void Finish() {}

  Outcome Check(bool /*traced*/) {
    Outcome out;
    out.failures += status_.ok() ? 0 : 1;
    out.checks.push_back(MakeCheck("agent specs load", status_.ok(), status_.ToString()));
    if (!status_.ok()) {
      return out;
    }
    Tally tally;
    tally.Add(*kernel_);
    tally.reclaimed += session_reclaimed_;
    tally.Since(base_).Fill(in_.events.size(), out);
    CheckAgentKernel(*kernel_, in_, verdicts_, in_.trace.ends.size(), out);
    return out;
  }

 private:
  const Inputs& in_;
  std::unique_ptr<Kernel> kernel_;
  osguard::Status status_;
  Tally base_;
  Verdicts verdicts_;
  uint64_t session_reclaimed_ = 0;
};

// agent_churn's inputs, plus the trace's first part committed to a journal
// once per process. The first part is not timed and is the same for every
// repetition, so each repetition recovers from its own copy of it.
struct DurableInputs : AgentInputs {
  explicit DurableInputs(const RunOptions& options)
      : AgentInputs(options), dir(options.state_dir + "/agent_durable-committed") {}
  ~DurableInputs() {
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }
  DurableInputs(const DurableInputs&) = delete;
  DurableInputs& operator=(const DurableInputs&) = delete;

  // agent_churn's verdict totals for this seed, computed on first use.
  mutable std::optional<Verdicts> reference;
  // The committed first part (see AgentDurable::CommitFirstPart).
  const std::string dir;
  mutable bool committed = false;
  mutable osguard::Status status;
  mutable size_t mid = 0;  // first event of the timed phase
  mutable Verdicts verdicts;
  mutable uint64_t reclaimed = 0;
};

// agent_churn's trace with a PersistManager journaling every callout.
// Set-up is the read side: Panic, then Reboot recovers what the untimed
// first part committed. The rest of the trace is the timed phase.
class AgentDurable {
 public:
  using Inputs = DurableInputs;
  static constexpr size_t kSpansPerEvent = 4;
  static constexpr int kRecoverSamples = 5;
  // The panic comes this many journal frames after the first snapshot past
  // two thirds of the trace, so every seed recovers a snapshot plus a journal
  // suffix of the same length. The timed phase is the last third or less, so
  // a run fits a dozen or more repetitions even on a slow host.
  static constexpr uint64_t kFramesAfterSnapshot = 200;

  AgentDurable(const Inputs& inputs, const RunOptions& options, bool)
      : in_(inputs),
        dir_(options.state_dir + "/agent_durable-" + std::to_string(next_dir_++)) {}
  ~AgentDurable() {
    kernel_.reset();
    persist_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
  AgentDurable(const AgentDurable&) = delete;
  AgentDurable& operator=(const AgentDurable&) = delete;

  void Setup(std::vector<SetupSample>& samples) {
    if (!in_.committed) {
      CommitFirstPart(samples);
    }
    status_ = in_.status;
    mid_ = in_.mid;
    verdicts_ = in_.verdicts;
    session_reclaimed_ = in_.reclaimed;
    if (!status_.ok()) {
      return;
    }
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    std::filesystem::copy(in_.dir, dir_, std::filesystem::copy_options::recursive, ec);
    if (ec) {
      status_ = osguard::InternalError("copying the journal: " + ec.message());
      return;
    }
    osguard::PersistOptions persist_options;
    persist_options.dir = dir_;
    persist_ = std::make_unique<osguard::PersistManager>(persist_options);
    kernel_ = std::make_unique<Kernel>();
    kernel_->AttachPersist(persist_.get());
    SetupSample unused;
    status_ = LoadAgentSpecs(*kernel_, in_, unused);
    // Every recovery reads the same committed state, so repeating it gives
    // several samples of one set-up.
    std::string first_image;
    for (int s = 0; s < kRecoverSamples && status_.ok(); ++s) {
      SetupSample sample;
      const int64_t start = NowNs();
      kernel_->Panic();
      const int64_t reboot = NowNs();
      auto info = kernel_->Reboot();
      sample.recover_ns = NowNs() - reboot;
      sample.total_ns = NowNs() - start;
      samples.push_back(sample);
      if (!info.ok()) {
        status_ = info.status();
        return;
      }
      warm_ = warm_ && !info->cold_start;
      replayed_frames_ = info->frames_replayed;
      const std::string image = kernel_->engine().EncodeImage();
      if (s == 0) {
        first_image = image;
      }
      same_recovery_ = same_recovery_ && image == first_image;
    }
    base_.Add(*kernel_);
    persist_base_ = persist_->stats();
  }

  size_t events() const { return status_.ok() ? in_.events.size() - mid_ : 0; }

  template <class Probe>
  void Deliver(size_t i, Probe& probe) {
    DeliverAgentEvent(*kernel_, in_, in_.events[mid_ + i], probe, verdicts_,
                      session_reclaimed_);
  }

  void Finish() {}

  Outcome Check(bool traced) {
    Outcome out;
    out.failures += status_.ok() ? 0 : 1;
    out.checks.push_back(
        MakeCheck("load, journal and reboot succeed", status_.ok(), status_.ToString()));
    if (!status_.ok()) {
      return out;
    }
    if (!in_.reference) {
      in_.reference = ReplayInMemory(in_, 0, nullptr);
    }
    out.checks.push_back(MakeCheck("recovery is warm", warm_, "cold start after reboot"));
    out.checks.push_back(
        MakeCheck("repeated recoveries restore the same state", same_recovery_, "images differ"));
    out.checks.push_back(MakeCheck("verdict totals equal agent_churn's",
                                   verdicts_ == *in_.reference,
                                   verdicts_.ToString() + " vs " + in_.reference->ToString()));
    if (traced) {
      // persist.commit_us: the same events' callout time without persistence.
      SpanTrace trace((in_.events.size() - mid_) * kSpansPerEvent);
      (void)ReplayInMemory(in_, mid_, &trace);
      const SpanTrace::Totals totals = trace.Reduce();
      out.gauges["persist.reference_callout_us"] =
          static_cast<double>(totals.self_ns[kCallout]) /
          static_cast<double>(std::max<uint64_t>(totals.events, 1)) / 1e3;
    }
    Tally tally;
    tally.Add(*kernel_);
    tally.reclaimed += session_reclaimed_;
    tally.Since(base_).Fill(events(), out);
    CheckAgentKernel(*kernel_, in_, verdicts_,
                     static_cast<uint64_t>(std::count_if(
                         in_.events.begin() + static_cast<std::ptrdiff_t>(mid_), in_.events.end(),
                         [](const AgentInputs::Event& event) { return event.end; })),
                     out);
    const osguard::PersistStats& stats = persist_->stats();
    const uint64_t frames = stats.frames_committed - persist_base_.frames_committed;
    out.counts["persist.frames"] = static_cast<double>(frames);
    out.counts["persist.bytes_per_frame"] =
        frames > 0 ? static_cast<double>(stats.bytes_appended - persist_base_.bytes_appended) /
                         static_cast<double>(frames)
                   : 0.0;
    out.counts["persist.snapshots"] =
        static_cast<double>(stats.snapshots_written - persist_base_.snapshots_written);
    out.counts["persist.replayed_frames"] = static_cast<double>(replayed_frames_);
    out.failures += stats.snapshot_failures;
    return out;
  }

 private:
  // Runs the untimed first part on a kernel journaling to in_.dir, up to
  // the panic point, and leaves the journal closed on disk.
  void CommitFirstPart(std::vector<SetupSample>& samples) {
    in_.committed = true;
    std::error_code ignored;
    std::filesystem::remove_all(in_.dir, ignored);
    osguard::PersistOptions persist_options;
    persist_options.dir = in_.dir;
    osguard::PersistManager persist(persist_options);
    Kernel kernel;
    kernel.AttachPersist(&persist);
    SetupSample load;  // spec load of the first boot: dsl.load_ms, not set-up
    in_.status = LoadAgentSpecs(kernel, in_, load);
    samples.push_back(load);
    if (in_.status.ok()) {
      in_.status = persist.Open();
    }
    if (!in_.status.ok()) {
      return;
    }
    NoTrace untraced;
    const size_t two_thirds = in_.events.size() * 2 / 3;
    uint64_t snapshots_before = 0;
    uint64_t frames_at_snapshot = 0;
    bool snapshot_seen = false;
    size_t& next = in_.mid;
    for (next = 0; next < in_.events.size();) {
      if (next == two_thirds) {
        snapshots_before = persist.stats().snapshots_written;
      }
      DeliverAgentEvent(kernel, in_, in_.events[next], untraced, in_.verdicts, in_.reclaimed);
      ++next;
      const osguard::PersistStats& stats = persist.stats();
      if (next > two_thirds && !snapshot_seen && stats.snapshots_written > snapshots_before) {
        snapshot_seen = true;
        frames_at_snapshot = stats.frames_committed;
      }
      if (snapshot_seen && stats.frames_committed - frames_at_snapshot >= kFramesAfterSnapshot) {
        break;
      }
    }
    if (persist.stats().snapshot_failures != 0) {
      in_.status = osguard::InternalError("snapshot failures while committing the first part");
    }
  }

  static inline int next_dir_ = 0;

  const Inputs& in_;
  const std::string dir_;
  size_t mid_ = 0;  // first event of the timed phase
  std::unique_ptr<osguard::PersistManager> persist_;
  std::unique_ptr<Kernel> kernel_;
  osguard::Status status_;
  bool warm_ = true;
  bool same_recovery_ = true;
  uint64_t replayed_frames_ = 0;  // journal frames the last recovery replayed
  Tally base_;
  osguard::PersistStats persist_base_;
  Verdicts verdicts_;
  uint64_t session_reclaimed_ = 0;
};

// ---------------------------------------------------------------------------
// callout_storm: calm/storm cycles of FUNCTION callouts over monitors in all
// three criticality tiers, with the governor on, beside a fleet of TIMER
// monitors with windowed aggregates.

constexpr int kTimerMonitors = 32;

std::string StormSpec() {
  std::string spec = R"(
guardrail crit-pressure {
  trigger: { FUNCTION(hot_path) },
  rule: { LOAD_OR(sys.pressure, 0) <= 90 },
  action: { SAVE(ctl.safe_mode, true); REPORT("pressure gate") },
  meta: { severity = critical, criticality = critical }
}
guardrail std-pressure {
  trigger: { FUNCTION(hot_path) },
  rule: { LOAD_OR(sys.pressure, 0) <= 50 },
  action: { REPORT("storm pressure", LOAD_OR(sys.pressure, 0)) },
  meta: { cooldown = 20ms },
  health: { budget_steps = 256 }
}
guardrail std-load {
  trigger: { FUNCTION(hot_path) },
  rule: { LOAD_OR(sys.load, 0) <= 900000 },
  action: { REPORT("std-load") },
  health: { budget_steps = 256 }
}
guardrail std-floor {
  trigger: { FUNCTION(hot_path) },
  rule: { LOAD_OR(sys.load, 0) >= 0 },
  action: { REPORT("std-floor") },
  health: { budget_steps = 256 }
}
)";
  for (int i = 0; i < 4; ++i) {
    spec += "guardrail besteffort" + std::to_string(i) +
            " {\n"
            "  trigger: { FUNCTION(hot_path) },\n"
            "  rule: { LOAD_OR(sys.pressure, 0) <= " +
            std::to_string(96 + i) +
            " },\n"
            "  action: { REPORT(\"be\") },\n"
            "  meta: { criticality = besteffort }\n"
            "}\n";
  }
  for (int i = 0; i < kTimerMonitors; ++i) {
    spec += "guardrail tick" + std::to_string(i) +
            " {\n"
            "  trigger: { TIMER(50ms, 50ms) },\n"
            "  rule: { COUNT(sys.lat, 1s) == 0 || MEAN(sys.lat, 1s) <= " +
            std::to_string(1000 + i) +
            " },\n"
            "  action: { REPORT(\"timer\") }\n"
            "}\n";
  }
  return spec;
}

struct StormInputs {
  explicit StormInputs(const RunOptions& options) : spec(StormSpec()) {
    osguard::StormWorkloadOptions storm;
    storm.calm = osguard::Milliseconds(200);
    storm.storm = osguard::Milliseconds(50);
    storm.tail = osguard::Milliseconds(400);
    storm.cycles = 120;
    storm.calm_rate = 200.0;
    storm.storm_rate = 80000.0;
    events = osguard::StormGenerator(storm, Mix(options.seed, 2)).Generate(osguard::Milliseconds(1));
    engine.governor.enabled = true;
    engine.governor.pressure_up = 20000.0;
    engine.governor.pressure_down = 4000.0;
    engine.governor.dwell_up = 4;
    engine.governor.dwell_down = 8;
    engine.governor.sample_every = 4;
    engine.governor.alpha = 0.3;
  }

  std::string spec;
  std::vector<osguard::StormEvent> events;
  EngineOptions engine;
};

class CalloutStorm {
 public:
  using Inputs = StormInputs;
  static constexpr size_t kSpansPerEvent = 3;
  static constexpr int kSetupSamples = 25;

  CalloutStorm(const Inputs& inputs, const RunOptions&, bool) : in_(inputs) {}

  void Setup(std::vector<SetupSample>& samples) {
    for (int s = 0; s < kSetupSamples; ++s) {
      kernel_.reset();
      SetupSample sample;
      const int64_t start = NowNs();
      kernel_ = std::make_unique<Kernel>(in_.engine);
      const int64_t load_start = NowNs();
      status_ = kernel_->LoadGuardrails(in_.spec);
      sample.load_ns = NowNs() - load_start;
      osguard::FeatureStore& store = kernel_->store();
      store.SetSeriesOptions("sys.lat", {.max_samples = 4096, .max_age = osguard::Seconds(1)});
      pressure_ = store.InternKey("sys.pressure");
      latency_ = store.InternKey("sys.lat");
      sample.total_ns = NowNs() - start;
      samples.push_back(sample);
    }
    base_.Add(*kernel_);
  }

  size_t events() const { return in_.events.size(); }

  // The instrumented function publishes its pressure and a latency sample,
  // then calls out.
  template <class Probe>
  void Deliver(size_t i, Probe& probe) {
    const osguard::StormEvent& event = in_.events[i];
    RunTo(*kernel_, event.at, probe);
    osguard::FeatureStore& store = kernel_->store();
    store.Save(pressure_, osguard::Value(static_cast<int64_t>(event.storm ? 80 : 10)));
    store.Observe(latency_, event.at, event.storm ? 900.0 : 100.0);
    probe.Time(kCallout, [&] { kernel_->Callout("hot_path"); });
  }

  void Finish() {}

  Outcome Check(bool /*traced*/) {
    Outcome out;
    out.failures += status_.ok() ? 0 : 1;
    out.checks.push_back(MakeCheck("storm spec loads", status_.ok(), status_.ToString()));
    const osguard::OverloadGovernor& governor = kernel_->engine().governor();
    out.checks.push_back(MakeCheck("no critical monitor shed", governor.stats().critical_sheds == 0,
                                   std::to_string(governor.stats().critical_sheds) + " sheds"));
    out.checks.push_back(MakeCheck(
        "governor degraded under the storms and ends at full service",
        governor.stats().transitions > 0 && governor.mode() == osguard::GovernorMode::kFull,
        std::to_string(governor.stats().transitions) + " transitions, final mode " +
            std::string(osguard::GovernorModeName(governor.mode()))));
    Tally tally;
    tally.Add(*kernel_);
    tally.Since(base_).Fill(in_.events.size(), out);
    return out;
  }

 private:
  const Inputs& in_;
  std::unique_ptr<Kernel> kernel_;
  osguard::Status status_;
  osguard::KeyId pressure_ = osguard::kInvalidKeyId;
  osguard::KeyId latency_ = osguard::kInvalidKeyId;
  Tally base_;
};

}  // namespace

std::optional<Report> RunWorkload(const RunOptions& options) {
  if (options.workload == "linnos_drift") {
    return RunReps<LinnosDrift>(LinnosInputs(options), options);
  }
  if (options.workload == "agent_churn") {
    return RunReps<AgentChurn>(AgentInputs(options), options);
  }
  if (options.workload == "agent_durable") {
    return RunReps<AgentDurable>(DurableInputs(options), options);
  }
  if (options.workload == "callout_storm") {
    return RunReps<CalloutStorm>(StormInputs(options), options);
  }
  return std::nullopt;
}

}  // namespace perfbench
