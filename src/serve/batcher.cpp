#include "serve/batcher.hpp"

#include "serve/telemetry.hpp"

namespace mtlsplit::serve {

DynamicBatcher::DynamicBatcher(RequestQueue& queue, BatchingPolicy policy)
    : queue_(&queue), policy_(policy) {
  check_arg(policy_.max_batch_size >= 1,
            "DynamicBatcher: max_batch_size must be >= 1");
  check_arg(policy_.max_wait_us >= 0,
            "DynamicBatcher: max_wait_us must be >= 0");
}

DynamicBatcher::DynamicBatcher(RequestQueue& queue, BatchingPolicy policy,
                               telemetry::Registry* reg,
                               const std::string& prefix)
    : DynamicBatcher(queue, policy) {
  if (reg) {
    batches_ = &reg->counter(prefix + "/batches");
    jumps_ = &reg->counter(prefix + "/jumps");
  }
}

void DynamicBatcher::coalesce(std::vector<Request>& out) {
  const bool jump = out.front().priority == Priority::kHigh;
  if (jump && jumps_) jumps_->inc();
  // A high-priority leader dispatches with what is already queued (a
  // deadline in the past makes pop_until a try-pop).
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(jump ? 0 : policy_.max_wait_us);
  while (static_cast<int64_t>(out.size()) < policy_.max_batch_size) {
    Request r;
    if (!queue_->pop_until(r, deadline)) break;
    out.push_back(std::move(r));
  }
}

bool DynamicBatcher::next_batch(std::vector<Request>& out) {
  out.clear();
  Request first;
  if (!queue_->pop(first)) return false;
  out.push_back(std::move(first));
  coalesce(out);
  if (batches_) batches_->inc();
  return true;
}

bool DynamicBatcher::next_batch_for(std::vector<Request>& out,
                                    std::chrono::microseconds idle_wait) {
  out.clear();
  Request first;
  if (!queue_->pop_until(first,
                         std::chrono::steady_clock::now() + idle_wait)) {
    // Timed out. Distinguish "nothing right now" from "never anything
    // again": closed() never unsets and a closed queue admits nothing, so
    // closed-and-empty is a stable exit condition.
    return !(queue_->closed() && queue_->size() == 0);
  }
  out.push_back(std::move(first));
  coalesce(out);
  if (batches_) batches_->inc();
  return true;
}

}  // namespace mtlsplit::serve
