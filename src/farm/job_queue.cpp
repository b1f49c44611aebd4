#include "eclipse/farm/job_queue.hpp"

namespace eclipse::farm {

namespace {
using Clock = std::chrono::steady_clock;
}

Admission JobQueue::push(PendingJob&& pj, std::chrono::milliseconds wait) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    const auto room = [&] { return closed_ || depthLocked() < capacity_; };
    // The forever wait must not go through wait_for: now() + max() overflows.
    if (wait == kWaitForever) {
      not_full_.wait(lock, room);
    } else if (wait.count() > 0) {
      not_full_.wait_for(lock, wait, room);
    }
    if (closed_) return Admission::ShuttingDown;
    if (depthLocked() >= capacity_) return Admission::QueueFull;  // job untouched
    pj.queued = Clock::now();
    lanes_[static_cast<int>(pj.lane())].push_back(std::move(pj));
  }
  not_empty_.notify_one();
  return Admission::Accepted;
}

std::optional<PendingJob> JobQueue::pop(const std::atomic<bool>* stop) {
  std::unique_lock<std::mutex> lock(mu_);
  not_empty_.wait(lock, [&] {
    return closed_ || depthLocked() > 0 ||
           (stop != nullptr && stop->load(std::memory_order_acquire));
  });
  for (auto& lane : lanes_) {
    if (!lane.empty()) {
      PendingJob pj = std::move(lane.front());
      lane.pop_front();
      lock.unlock();
      not_full_.notify_one();
      return pj;
    }
  }
  return std::nullopt;  // closed and drained, or the popper is retiring
}

void JobQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
}

void JobQueue::wake() { not_empty_.notify_all(); }

std::size_t JobQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return depthLocked();
}

std::array<LaneGauge, 3> JobQueue::gauges() const {
  const Clock::time_point now = Clock::now();
  std::array<LaneGauge, 3> g{};
  std::lock_guard<std::mutex> lock(mu_);
  for (int i = 0; i < 3; ++i) {
    g[static_cast<std::size_t>(i)].depth = lanes_[i].size();
    if (!lanes_[i].empty()) {
      // FIFO within a lane: the head is the oldest resident.
      g[static_cast<std::size_t>(i)].oldest_ms =
          std::chrono::duration<double, std::milli>(now - lanes_[i].front().queued).count();
    }
  }
  return g;
}

bool JobQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

}  // namespace eclipse::farm
