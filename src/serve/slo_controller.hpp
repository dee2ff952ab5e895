// Closed-loop SLO control over the telemetry tree (DESIGN.md §11).
//
// Static admission knobs (queue capacity, autoscale backlog thresholds)
// are tuned for one traffic level; a ramp past that level turns the queue
// into a latency amplifier — every admitted request waits behind a full
// backlog, so *all* of them miss the deadline. The SloController instead
// samples the measured p99 from a drainable latency window
// ("serve/requests/latency_window") each control interval and steers two
// actuators AIMD-style:
//
//  * the admission depth cap — multiplicative shrink while p99 exceeds
//    the target (shed early, keep the queue short enough that admitted
//    requests still make the deadline), additive growth back toward the
//    configured capacity while p99 sits comfortably below it;
//  * the autoscaler's scale-up backlog threshold — lowered in proportion
//    so replicas are minted *before* the backlog visibly explodes.
//
// The controller publishes its own state under "serve/slo/*", so the
// feedback loop is observable through the same tree it reads.
#pragma once

#include <cstddef>
#include <cstdint>

#include "serve/telemetry.hpp"

namespace mtlsplit::serve {

struct SloConfig {
  bool enabled = false;
  /// Deadline SLO the controller holds: measured p99 end-to-end latency
  /// (seconds) must stay at or below this. Required > 0 when enabled.
  double target_p99_s = 0.0;
  /// Control interval between ticks.
  int64_t interval_us = 20000;
  /// A window with fewer completions than this carries too little signal;
  /// the tick leaves the actuators alone.
  int64_t min_window_samples = 16;
  /// The depth cap never shrinks below this (>= 1).
  size_t min_depth = 2;
  /// Upper bound the cap can grow back to; 0 = the initial depth.
  size_t max_depth = 0;
  /// Multiplicative factor in (0, 1) applied to both actuators on a
  /// violation.
  double shrink = 0.7;
  /// Grow only while p99 < grow_margin * target — a comfort margin that
  /// keeps the cap from oscillating against the SLO boundary.
  double grow_margin = 0.7;
  /// Floor for the driven scale-up threshold (queued-per-replica).
  double min_scale_up_backlog = 1.0;
};

/// Pure control logic: feed it drained latency windows, read back the
/// actuator settings. Thread-compatible (one ticker); ScServer runs it on
/// a dedicated loop, tests drive it directly.
class SloController {
 public:
  /// @p initial_depth is the configured admission capacity the cap starts
  /// from (and grows back to, unless cfg.max_depth overrides);
  /// @p base_scale_up_backlog the autoscaler's configured threshold.
  /// Publishes state gauges into @p reg under "serve/slo/".
  SloController(const SloConfig& cfg, size_t initial_depth,
                double base_scale_up_backlog, telemetry::Registry& reg);

  struct Decision {
    size_t depth_cap;
    double scale_up_backlog;
    bool acted;  ///< the window carried enough samples to steer
  };

  /// One control tick over a drained latency window.
  Decision tick(const telemetry::HistSnapshot& window);

  size_t depth_cap() const { return depth_cap_; }
  double scale_up_backlog() const { return scale_up_backlog_; }

 private:
  SloConfig cfg_;
  size_t max_depth_;
  double base_scale_up_backlog_;
  size_t depth_cap_;
  double scale_up_backlog_;
  telemetry::Gauge& cap_gauge_;
  telemetry::Gauge& backlog_gauge_;
  telemetry::Gauge& target_gauge_;
  telemetry::Gauge& p99_gauge_;
  telemetry::Gauge& slack_gauge_;
  telemetry::Counter& ticks_;
  telemetry::Counter& violations_;
};

}  // namespace mtlsplit::serve
