// Retrain queue: the RETRAIN action (A3).
//
// The paper envisions retraining as an *offline, asynchronous* process that
// "must be protected to prevent abuse from malicious processes by
// intentionally triggering frequent retraining" (§3.2). The queue therefore
// enforces, per model:
//   * a minimum interval between accepted requests (token-style throttle),
//   * a bound on outstanding requests (duplicates for the same model
//     coalesce rather than queue), and
//   * a global queue-depth cap.
// Consumers (the ML substrate's trainer loop) drain requests with Pop().

#ifndef SRC_ACTIONS_RETRAIN_H_
#define SRC_ACTIONS_RETRAIN_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/support/status.h"
#include "src/support/time.h"

namespace osguard {

struct RetrainRequest {
  std::string model;
  std::string data_key;  // feature-store key naming the new training window
  SimTime requested_at = 0;
};

struct RetrainQueueOptions {
  // Minimum simulated time between accepted requests for one model.
  Duration min_interval = Seconds(60);
  // Global cap on outstanding (un-popped) requests.
  size_t max_depth = 64;
};

struct RetrainQueueStats {
  uint64_t accepted = 0;
  uint64_t throttled = 0;   // rejected by min_interval
  uint64_t coalesced = 0;   // duplicate for an already-queued model
  uint64_t overflowed = 0;  // rejected by max_depth
  uint64_t drained = 0;
};

class RetrainQueue {
 public:
  explicit RetrainQueue(RetrainQueueOptions options = {}) : options_(options) {}
  RetrainQueue(const RetrainQueue&) = delete;
  RetrainQueue& operator=(const RetrainQueue&) = delete;

  // Requests retraining of `model` on `data_key`. Returns true if the
  // request was queued, false if it was throttled/coalesced/overflowed
  // (never an error — RETRAIN is best-effort by design).
  bool Request(const std::string& model, const std::string& data_key, SimTime now);

  // Next request to service, FIFO. nullopt when empty.
  std::optional<RetrainRequest> Pop();

  size_t depth() const;
  RetrainQueueStats stats() const;
  void Clear();

  // The queue state the engine image carries, in image order
  // (src/persist/wire.h): requests in FIFO order, then the throttle and
  // outstanding-count maps sorted by model. The throttle map matters across
  // a reboot: forgetting last_accepted would let a crash bypass the §3.2
  // anti-abuse rate limit.
  template <class Io, class Self>
  static void PersistFields(Io& io, Self& q) {
    io.Seq(q.queue_, "retrain request", [&](auto& request) {
      io.Str(request.model);
      io.Str(request.data_key);
      io.I64(request.requested_at);
    });
    io.SortedMap(q.last_accepted_, "retrain throttle", [&](auto& model, auto& at) {
      io.Str(model);
      io.I64(at);
    });
    io.SortedMap(q.queued_count_, "retrain outstanding", [&](auto& model, auto& count) {
      io.Str(model);
      io.I64(count);
    });
    io.U64(q.stats_.accepted);
    io.U64(q.stats_.throttled);
    io.U64(q.stats_.coalesced);
    io.U64(q.stats_.overflowed);
    io.U64(q.stats_.drained);
  }

 private:
  RetrainQueueOptions options_;
  std::deque<RetrainRequest> queue_;
  std::unordered_map<std::string, SimTime> last_accepted_;
  std::unordered_map<std::string, int> queued_count_;
  RetrainQueueStats stats_;
};

}  // namespace osguard

#endif  // SRC_ACTIONS_RETRAIN_H_
