// Task control: the DEPRIORITIZE action (A4).
//
// DEPRIORITIZE({tasks}, {priorities}) changes the workload/environment when
// model-directed recovery is not enough — the OOM-killer-style last resort
// of Figure 1. The runtime only defines the interface; subsystems that own
// tasks (the scheduler substrate, the block layer's tenant queues) implement
// it. A recording fake is provided for engines without a task-owning
// substrate and for tests.

#ifndef SRC_ACTIONS_TASK_CONTROL_H_
#define SRC_ACTIONS_TASK_CONTROL_H_

#include <string>
#include <vector>

#include "src/support/status.h"
#include "src/support/time.h"

namespace osguard {

struct DeprioritizeEvent {
  std::vector<std::string> tasks;
  std::vector<double> priorities;
  SimTime time = 0;
};

class TaskControl {
 public:
  virtual ~TaskControl() = default;

  // Applies new priorities to tasks (lower value = lower priority; a
  // priority < 0 requests termination, mirroring the OOM-killer analogy).
  // tasks.size() == priorities.size() is guaranteed by the dispatcher.
  virtual Status Deprioritize(const std::vector<std::string>& tasks,
                              const std::vector<double>& priorities, SimTime now) = 0;
};

// Records requests without acting on them; also the default when no
// subsystem has registered a real implementation.
class RecordingTaskControl : public TaskControl {
 public:
  Status Deprioritize(const std::vector<std::string>& tasks,
                      const std::vector<double>& priorities, SimTime now) override {
      events_.push_back(DeprioritizeEvent{tasks, priorities, now});
    return OkStatus();
  }

  std::vector<DeprioritizeEvent> events() const {
      return events_;
  }

 private:
  std::vector<DeprioritizeEvent> events_;
};

}  // namespace osguard

#endif  // SRC_ACTIONS_TASK_CONTROL_H_
