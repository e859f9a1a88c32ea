// Shared types of the repository benchmark (see LEDGER.md).
//
// A workload is one seeded request stream driven in a closed loop by one
// client: the next request is sent when the previous one returned. Each
// workload function builds its inputs from RunConfig::seed, sets up
// (repeatedly, so set-up time has a median), runs the timed phase, and
// then audits every verdict it saw against an independent reference
// outside the timed region.
#ifndef DDBENCH_WORKLOAD_H_
#define DDBENCH_WORKLOAD_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "ledger.h"

namespace ddbench {

struct RunConfig {
  uint64_t seed = 1;
  /// Length of the timed phase. Ignored when max_requests > 0.
  double seconds = 10.0;
  /// Fixed-work mode (the determinism self-check): stop after exactly
  /// this many requests instead of after `seconds`.
  int64_t max_requests = 0;
  /// Set-up repetitions; setup_s reports their median.
  int setup_reps = 7;
  /// Record spans and counters into the ledger (the traced run).
  bool traced = false;
};

/// What one workload run measured.
struct Outcome {
  std::vector<double> setup_s;     ///< one entry per set-up repetition
  std::vector<double> latency_ms;  ///< every request, all types
  std::vector<double> template_ms; ///< serve_mix ANSWERS requests
  std::vector<double> reload_ms;   ///< serve_mix writes: edit, ground, Reload
  double timed_s = 0;              ///< timed-phase wall time
  double paused_ms = 0;  ///< ledger bookkeeping inside the timed phase
  int64_t attempted = 0;
  int64_t failed = 0;  ///< hard errors + kUnknown + shed
  int64_t wrong = 0;   ///< definite verdicts contradicting the reference
  int64_t audited = 0; ///< verdicts checked against a reference
  Ledger ledger;       ///< filled only by traced runs
};

/// Monotonic milliseconds since an arbitrary epoch.
inline double NowMs() {
  using namespace std::chrono;
  return duration<double, std::milli>(
             steady_clock::now().time_since_epoch())
      .count();
}

/// Decides when the timed phase ends: after cfg.seconds of wall time, or
/// after cfg.max_requests requests in fixed-work mode.
class StopRule {
 public:
  explicit StopRule(const RunConfig& cfg)
      : max_requests_(cfg.max_requests),
        end_ms_(NowMs() + cfg.seconds * 1e3) {}
  bool Done(int64_t requests_so_far) const {
    if (max_requests_ > 0) return requests_so_far >= max_requests_;
    return NowMs() >= end_ms_;
  }

 private:
  int64_t max_requests_;
  double end_ms_;
};

Outcome RunPi2Infer(const RunConfig& cfg);
Outcome RunStableNeg(const RunConfig& cfg);
Outcome RunServeMix(const RunConfig& cfg);

}  // namespace ddbench

#endif  // DDBENCH_WORKLOAD_H_
