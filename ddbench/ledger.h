// The per-layer ledger of a traced run.
//
// Workloads fold every finished span tree into a Ledger (self time per
// layer, duration per benchmark-side span name, every span counter) and
// add the work counters they read from the library's stats structs
// (TotalStats, TotalSessionStats, dispatch_stats, ServeStats,
// TemplateStats). LayerMetrics turns the totals into the per-layer
// metrics named in LEDGER.md: rates per request, ratios over their stated
// base, times in milliseconds.
//
// Work counters (Counts) are deterministic for a fixed seed and request
// count on one thread; times are not. The determinism self-check compares
// Counts only.
#ifndef DDBENCH_LEDGER_H_
#define DDBENCH_LEDGER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace ddbench {

class Ledger {
 public:
  /// Folds one finished span tree.
  void AddTrace(const dd::obs::TraceContext& trace);

  /// Adds `delta` to the work counter `key`.
  void Add(const std::string& key, double delta) { counts_[key] += delta; }

  double Count(const std::string& key) const;
  /// Summed self time (duration minus child spans) of `layer`'s spans.
  double SelfMs(const std::string& layer) const;
  /// Summed duration of the spans named `name`.
  double SpanMs(const std::string& name) const;

  const std::map<std::string, double>& counts() const { return counts_; }

  /// The first retained span trees as {"traces": [...]}.
  std::string TraceJson() const;

 private:
  std::map<std::string, double> counts_;
  std::map<std::string, double> self_us_;
  std::map<std::string, double> span_us_;
  std::vector<std::string> retained_;
};

/// Per-layer metrics of a traced run (LEDGER.md), keyed by metric name.
std::map<std::string, double> LayerMetrics(const Ledger& l);

/// One TraceContext at a fixed address, emptied after every request, so a
/// long traced run holds one request's spans at a time. Components that
/// captured the pointer (ServeOptions::trace) record into the new context.
class TraceSlot {
 public:
  TraceSlot() { ctx_.emplace(); }
  dd::obs::TraceContext* get() { return &*ctx_; }
  /// Folds the current spans into `ledger` and starts an empty context.
  void FlushInto(Ledger* ledger) {
    ledger->AddTrace(*ctx_);
    ctx_.reset();
    ctx_.emplace();
  }

 private:
  std::optional<dd::obs::TraceContext> ctx_;
};

}  // namespace ddbench

#endif  // DDBENCH_LEDGER_H_
