#include "src/actions/retrain.h"

namespace osguard {

bool RetrainQueue::Request(const std::string& model, const std::string& data_key, SimTime now) {
  auto last = last_accepted_.find(model);
  if (last != last_accepted_.end() && now - last->second < options_.min_interval) {
    ++stats_.throttled;
    return false;
  }
  if (queued_count_[model] > 0) {
    ++stats_.coalesced;
    return false;
  }
  if (queue_.size() >= options_.max_depth) {
    ++stats_.overflowed;
    return false;
  }
  queue_.push_back(RetrainRequest{model, data_key, now});
  queued_count_[model] += 1;
  last_accepted_[model] = now;
  ++stats_.accepted;
  return true;
}

std::optional<RetrainRequest> RetrainQueue::Pop() {
  if (queue_.empty()) {
    return std::nullopt;
  }
  RetrainRequest request = std::move(queue_.front());
  queue_.pop_front();
  queued_count_[request.model] -= 1;
  ++stats_.drained;
  return request;
}

size_t RetrainQueue::depth() const {
  return queue_.size();
}

RetrainQueueStats RetrainQueue::stats() const {
  return stats_;
}

void RetrainQueue::Clear() {
  queue_.clear();
  queued_count_.clear();
  last_accepted_.clear();
  stats_ = RetrainQueueStats{};
}

}  // namespace osguard
