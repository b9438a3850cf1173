#include "src/sim/agent_callout.h"

#include <algorithm>

namespace osguard {

namespace {

// Names of AgentGovernor::GlobalKey, in enum order.
constexpr const char* kGlobalKeyNames[] = {
    kAgentKeyEvents,
    kAgentKeySessions,
    kAgentKeyCallsStream,
    "agent.calls.file",
    "agent.calls.net",
    "agent.calls.exec",
    kAgentKeyRateSession,
    kAgentKeyRateCurrent,
    kAgentKeyLastSession,
    kAgentKeyLastTool,
    kAgentKeyLastFingerprint,
    kAgentKeyTaintSessions,
    kAgentKeyTaintLastSession,
    kAgentKeyTaintNetAfterSecret,
    kAgentKeyGovDenied,
    kAgentKeyGovThrottled,
    kAgentKeyGovKilled,
    kAgentKeyGovRejected,
    kAgentCtlKillSession,
    "agent.ctl.deny.file",
    "agent.ctl.deny.net",
    "agent.ctl.deny.exec",
    kAgentCtlThrottleSession,
    kAgentCtlThrottleLimit,
    kAgentCtlThrottleWindowMs,
};

// Window for the published per-session rate (agent.rate.current).
constexpr Duration kRateWindow = Seconds(1);
// Retention for the per-session call series: enough for rate windows and
// throttle windows, bounded so a million sessions cannot eat the host.
constexpr SeriesOptions kSessionSeries{.max_samples = 1024, .max_age = Seconds(30)};
// Retention for the global call stream.
constexpr SeriesOptions kStreamSeries{.max_samples = 65536, .max_age = Seconds(60)};

// Suffixes of AgentGovernor::SessionKey, in enum order.
constexpr const char* kSessionSuffixes[] = {"calls", "seen", "taint", "file",
                                            "net",   "exec", "killed"};

}  // namespace

void AgentGovernor::SetChaos(ChaosEngine* chaos) {
  chaos_ = chaos;
  if (chaos_ != nullptr) {
    drop_site_ = chaos_->RegisterSite(kChaosSiteAgentEventDrop);
    dup_site_ = chaos_->RegisterSite(kChaosSiteAgentDupSession);
  } else {
    drop_site_ = kInvalidChaosSite;
    dup_site_ = kInvalidChaosSite;
  }
}

KeyId AgentGovernor::WriteId(GlobalKey key) {
  KeyId& id = global_ids_[key];
  if (id == kInvalidKeyId) {
    id = store_->InternKey(kGlobalKeyNames[key]);
    store_->Pin(id);
  }
  return id;
}

KeyId AgentGovernor::ReadId(GlobalKey key) {
  KeyId& id = global_ids_[key];
  if (id == kInvalidKeyId) {
    id = store_->FindKey(kGlobalKeyNames[key]);
    if (id != kInvalidKeyId) {
      store_->Pin(id);
    }
  }
  return id;
}

KeyId AgentGovernor::SessionId(SessionKey key, bool create) {
  KeyId& id = session_ids_[key];
  if (id == kInvalidKeyId) {
    const std::string_view name = session_keys_.Key(kSessionSuffixes[key]);
    id = create ? store_->InternKey(name) : store_->FindKey(name);
  }
  return id;
}

AgentAdmitVerdict AgentGovernor::Admit(const agent::ToolCallEvent& event, SimTime now) {
  const FeatureStore& store = *store_;
  // Kill wins over everything: a terminated session makes no calls at all.
  // NumericOr everywhere: spec actions SAVE through the VM, which may store
  // these ids/limits as doubles; admission must not care.
  const double kill_sid =
      store.LoadOr(ReadId(kCtlKillSession), Value(int64_t{0})).NumericOr(0.0);
  if (kill_sid != 0.0 && kill_sid == static_cast<double>(event.session)) {
    return AgentAdmitVerdict::kKill;
  }
  if (store.LoadOr(SessionId(kKilled, false), Value(false)).AsBool().value_or(false)) {
    return AgentAdmitVerdict::kKill;
  }
  // Allowlist: a denied tool class is rejected regardless of session.
  const auto deny = static_cast<GlobalKey>(kCtlDenyFile + static_cast<int>(event.tool));
  if (store.LoadOr(ReadId(deny), Value(false)).AsBool().value_or(false)) {
    return AgentAdmitVerdict::kDeny;
  }
  // Throttle: cap the flagged session to `limit` calls per window, counting
  // previously *accepted* calls (the governor's per-session series). The
  // throttle self-clears as the window drains — it shapes, it does not ban.
  const double throttled =
      store.LoadOr(ReadId(kCtlThrottleSession), Value(int64_t{0})).NumericOr(0.0);
  if (throttled != 0.0 && throttled == static_cast<double>(event.session)) {
    const double limit =
        store.LoadOr(ReadId(kCtlThrottleLimit), Value(kAgentThrottleLimitDefault))
            .NumericOr(static_cast<double>(kAgentThrottleLimitDefault));
    const int64_t window_ms = static_cast<int64_t>(
        store.LoadOr(ReadId(kCtlThrottleWindowMs), Value(kAgentThrottleWindowMsDefault))
            .NumericOr(static_cast<double>(kAgentThrottleWindowMsDefault)));
    const double in_window = store
                                 .Aggregate(SessionId(kCalls, false), AggKind::kCount,
                                            Milliseconds(window_ms), now)
                                 .value_or(0.0);
    if (in_window >= limit) {
      return AgentAdmitVerdict::kThrottle;
    }
  }
  return AgentAdmitVerdict::kAllow;
}

AgentAdmitVerdict AgentGovernor::Process(const agent::ToolCallEvent& event,
                                         SimTime now) {
  using agent::ToolClass;
  FeatureStore& store = *store_;
  session_keys_.Reset(event.session);
  session_ids_.fill(kInvalidKeyId);
  const AgentAdmitVerdict verdict = Admit(event, now);
  if (verdict != AgentAdmitVerdict::kAllow) {
    store.Increment(WriteId(kGovRejected));
    switch (verdict) {
      case AgentAdmitVerdict::kDeny:
        store.Increment(WriteId(kGovDenied));
        break;
      case AgentAdmitVerdict::kThrottle:
        store.Increment(WriteId(kGovThrottled));
        break;
      case AgentAdmitVerdict::kKill: {
        // Kill is permanent: latch the per-session bit on first rejection so
        // later calls short-circuit without consulting agent.ctl.*.
        if (!store.LoadOr(SessionId(kKilled, false), Value(false)).AsBool().value_or(false)) {
          store.Save(SessionId(kKilled, true), Value(true));
          store.Increment(WriteId(kGovKilled));
          if (reclaim_on_kill_) {
            // The session will never publish again (admission reads the
            // latch first), so its data keys can go now. The latch stays.
            for (const SessionKey key : {kCalls, kSeen, kTaint, kFile, kNet, kExec}) {
              (void)store.ReclaimKey(session_keys_.Key(kSessionSuffixes[key]));
            }
          }
        }
        break;
      }
      case AgentAdmitVerdict::kAllow:
        break;
    }
    return verdict;
  }

  // --- Publication (accepted call) ---
  // Contains() sees scalars only, so series bounds are gated on scalar
  // sentinels: the events counter for the global stream, the per-session
  // "seen" bit for the session series.
  if (!store.Contains(ReadId(kEvents))) {
    store.SetSeriesOptions(kAgentKeyCallsStream, kStreamSeries);
  }
  store.Increment(WriteId(kEvents));
  if (!store.Contains(SessionId(kSeen, false))) {
    store.SetSeriesOptions(session_keys_.Key(kSessionSuffixes[kCalls]), kSessionSeries);
    store.Save(SessionId(kSeen, true), Value(true));
    store.Increment(WriteId(kSessions));
  }
  const KeyId calls = SessionId(kCalls, true);
  store.Observe(calls, now, 1.0);
  store.Observe(WriteId(kCallsStream), now, 1.0);
  const int tool = static_cast<int>(event.tool);
  store.Increment(WriteId(static_cast<GlobalKey>(kCallsFile + tool)));
  store.Increment(SessionId(static_cast<SessionKey>(kFile + tool), true));
  store.Save(WriteId(kLastSession), Value(static_cast<int64_t>(event.session)));
  store.Save(WriteId(kLastTool), Value(static_cast<int64_t>(event.tool)));
  store.Save(WriteId(kLastFingerprint), Value(static_cast<int64_t>(event.fingerprint)));
  // Windowed per-session rate: session id first, then the count, so the
  // ONCHANGE watcher of agent.rate.current reads a consistent pair.
  const double in_window =
      store.Aggregate(calls, AggKind::kCount, kRateWindow, now).value_or(0.0);
  store.Save(WriteId(kRateSession), Value(static_cast<int64_t>(event.session)));
  store.Save(WriteId(kRateCurrent), Value(in_window));
  // Taint tracking (the "no network send after reading secrets" property).
  if (event.tool == ToolClass::kFile && event.secret) {
    if (!store.LoadOr(SessionId(kTaint, false), Value(false)).AsBool().value_or(false)) {
      store.Save(SessionId(kTaint, true), Value(true));
      store.Increment(WriteId(kTaintSessions));
    }
  } else if (event.tool == ToolClass::kNet &&
             store.LoadOr(SessionId(kTaint, false), Value(false)).AsBool().value_or(false)) {
    // Offender id before the counter: the ONCHANGE spec fires on the
    // increment and reads the session to kill.
    store.Save(WriteId(kTaintLastSession), Value(static_cast<int64_t>(event.session)));
    store.Increment(WriteId(kTaintNetAfterSecret));
  }
  return verdict;
}

AgentSessionSlots AgentGovernor::FindSessionKeys(uint64_t session) {
  AgentSessionSlots slots;
  session_keys_.Reset(session);
  for (const char* suffix : kSessionSuffixes) {
    const KeyId id = store_->FindKey(session_keys_.Key(suffix));
    if (id != kInvalidKeyId) {
      slots.ids[slots.count++] = id;
    }
  }
  std::sort(slots.ids.begin(), slots.ids.begin() + static_cast<std::ptrdiff_t>(slots.count));
  return slots;
}

}  // namespace osguard
