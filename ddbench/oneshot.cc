#include "oneshot.h"

namespace ddbench {

OneShot::OneShot(dd::Database db, TraceSlot* slot, Outcome* out)
    : slot_(slot), out_(out) {
  dd::obs::ScopedSpan span(slot_ != nullptr ? slot_->get() : nullptr,
                           "bench.construct", "bench");
  reasoner_.emplace(std::move(db));
  reasoner_->properties();
}

OneShot::~OneShot() {
  if (slot_ == nullptr) return;
  const double pause = NowMs();
  Ledger& l = out_->ledger;
  const dd::MinimalStats s = reasoner_->TotalStats();
  l.Add("minimal.sat_calls", static_cast<double>(s.sat_calls));
  l.Add("minimal.minimizations", static_cast<double>(s.minimizations));
  l.Add("minimal.models_enumerated",
        static_cast<double>(s.models_enumerated));
  l.Add("minimal.cegar_iterations", static_cast<double>(s.cegar_iterations));
  const dd::oracle::SessionStats ss = reasoner_->TotalSessionStats();
  l.Add("oracle.base_loads", static_cast<double>(ss.base_loads));
  l.Add("oracle.solves", static_cast<double>(ss.solves));
  l.Add("oracle.contexts_opened", static_cast<double>(ss.contexts_opened));
  l.Add("oracle.guarded_clauses", static_cast<double>(ss.guarded_clauses));
  l.Add("oracle.cache_hits", static_cast<double>(ss.cache_hits));
  l.Add("oracle.cache_misses", static_cast<double>(ss.cache_misses));
  l.Add("oracle.cache_evictions", static_cast<double>(ss.cache_evictions));
  const dd::analysis::DispatchStats& d = reasoner_->dispatch_stats();
  l.Add("analysis.dispatch_generic", static_cast<double>(d.generic));
  l.Add("analysis.dispatch_downgrades", static_cast<double>(d.Downgrades()));
  slot_->FlushInto(&l);
  out_->paused_ms += NowMs() - pause;
}

dd::Trilean OneShot::Literal(dd::SemanticsKind kind,
                             const std::string& literal) {
  dd::QueryOptions q;
  q.deadline_ms = kQueryDeadlineMs;
  q.trace = slot_ != nullptr ? slot_->get() : nullptr;
  dd::obs::ScopedSpan span(q.trace, "bench.query", "bench");
  const double start = NowMs();
  return Finish(start, reasoner_->InfersLiteral(kind, literal, q));
}

dd::Trilean OneShot::HasModel(dd::SemanticsKind kind) {
  dd::QueryOptions q;
  q.deadline_ms = kQueryDeadlineMs;
  q.trace = slot_ != nullptr ? slot_->get() : nullptr;
  dd::obs::ScopedSpan span(q.trace, "bench.query", "bench");
  const double start = NowMs();
  return Finish(start, reasoner_->HasModel(kind, q));
}

dd::Trilean OneShot::Finish(double start_ms,
                            const dd::Result<dd::Trilean>& r) {
  out_->latency_ms.push_back(NowMs() - start_ms);
  ++out_->attempted;
  if (slot_ != nullptr) out_->ledger.Add("requests", 1);
  if (!r.ok() || *r == dd::Trilean::kUnknown) {
    ++out_->failed;
    return dd::Trilean::kUnknown;
  }
  return *r;
}

}  // namespace ddbench
