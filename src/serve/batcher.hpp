// Dynamic batching policy for the serving layer (DESIGN.md §8).
//
// Single-sample requests from many clients amortise the server's per-batch
// overhead only if someone coalesces them; the batcher implements the
// classic size-or-deadline policy: wait (indefinitely) for the first
// request, then keep filling the batch with requests that arrive within
// max_wait_us of it, stopping early at max_batch_size. max_wait_us = 0
// degrades to "take whatever is already queued" (no added latency);
// max_batch_size = 1 disables batching entirely.
//
// Priority interacts with coalescing in two ways: the queue pops
// high-priority requests first (so they always lead the next batch), and
// a batch led by a kHigh request skips the coalescing wait entirely — it
// dispatches with whatever is already queued instead of idling out
// max_wait_us.
//
// next_batch_for is the bounded variant ScServer's workers use: it gives
// up after an idle window with an empty batch instead of blocking
// forever, so a worker can notice retirement (autoscaler scale-down) or
// go steal from a backlogged sibling shard between waits.
#pragma once

#include <vector>

#include "serve/request_queue.hpp"

namespace mtlsplit::serve {

struct BatchingPolicy {
  int64_t max_batch_size = 8;  ///< cap on requests coalesced per batch
  int64_t max_wait_us = 2000;  ///< how long the first request may wait
};

class DynamicBatcher {
 public:
  DynamicBatcher(RequestQueue& queue, BatchingPolicy policy);

  /// As above, plus telemetry: registers "<prefix>/batches" (batches
  /// formed) and "<prefix>/jumps" (high-priority leaders that skipped the
  /// wait window) in @p reg. Paths are shared across batchers given the
  /// same prefix (per-shard, not per-worker).
  DynamicBatcher(RequestQueue& queue, BatchingPolicy policy,
                 telemetry::Registry* reg, const std::string& prefix);

  /// Blocks for the next batch (at least one request). Returns false when
  /// the queue is closed and fully drained. Safe to run from several
  /// consumer threads over one queue — each request lands in exactly one
  /// batch.
  bool next_batch(std::vector<Request>& out);

  /// As next_batch, but waits at most @p idle_wait for the leading
  /// request. Returns false only when the queue is closed and fully
  /// drained; returns true with an empty @p out when the wait simply
  /// timed out (the caller may poll again, steal elsewhere, or retire).
  bool next_batch_for(std::vector<Request>& out,
                      std::chrono::microseconds idle_wait);

  const BatchingPolicy& policy() const { return policy_; }

 private:
  void coalesce(std::vector<Request>& out);  // fills after the leader

  RequestQueue* queue_;
  BatchingPolicy policy_;
  telemetry::Counter* batches_ = nullptr;
  telemetry::Counter* jumps_ = nullptr;
};

}  // namespace mtlsplit::serve
