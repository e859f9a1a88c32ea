// One-shot library use, as a ddquery invocation runs it: a fresh Reasoner
// per instance, asked a few queries, then dropped. Shared by pi2_infer and
// stable_neg.
#ifndef DDBENCH_ONESHOT_H_
#define DDBENCH_ONESHOT_H_

#include <optional>
#include <string>

#include "core/reasoner.h"
#include "workload.h"

namespace ddbench {

/// Generous per-query deadline: a query that hits it counts as failed.
inline constexpr int64_t kQueryDeadlineMs = 60000;

class OneShot {
 public:
  /// Builds the Reasoner and its static analysis (properties()), inside a
  /// "bench.construct" span when `slot` is non-null (the traced run).
  OneShot(dd::Database db, TraceSlot* slot, Outcome* out);
  /// Folds the reasoner's TotalStats / TotalSessionStats / dispatch_stats
  /// into the ledger (traced run only).
  ~OneShot();
  OneShot(const OneShot&) = delete;
  OneShot& operator=(const OneShot&) = delete;

  /// Skeptical literal inference; one request.
  dd::Trilean Literal(dd::SemanticsKind kind, const std::string& literal);
  /// Model existence; one request.
  dd::Trilean HasModel(dd::SemanticsKind kind);

 private:
  /// Records one request's latency and outcome; kUnknown on failure.
  dd::Trilean Finish(double start_ms, const dd::Result<dd::Trilean>& r);

  TraceSlot* slot_;
  Outcome* out_;
  std::optional<dd::Reasoner> reasoner_;
};

}  // namespace ddbench

#endif  // DDBENCH_ONESHOT_H_
