#include "ledger.h"

#include <unordered_map>

namespace ddbench {

namespace {

/// Span trees kept verbatim for the trace file (the first requests).
constexpr size_t kRetainedTraces = 16;

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

void Ledger::AddTrace(const dd::obs::TraceContext& trace) {
  const std::vector<dd::obs::Span> spans = trace.Snapshot();
  if (spans.empty()) return;
  if (retained_.size() < kRetainedTraces) {
    retained_.push_back(trace.ToJsonString());
  }
  std::unordered_map<int, double> child_us;
  for (const dd::obs::Span& s : spans) {
    if (s.parent >= 0 && s.end_us >= 0) {
      child_us[s.parent] += static_cast<double>(s.end_us - s.start_us);
    }
  }
  for (const dd::obs::Span& s : spans) {
    counts_["calls:" + s.name] += 1;
    for (const auto& [key, value] : s.counters) {
      counts_["layer:" + s.layer + ":" + key] += static_cast<double>(value);
      counts_["span:" + s.name + ":" + key] += static_cast<double>(value);
    }
    if (s.end_us < 0) continue;  // still open: no duration yet
    const double dur = static_cast<double>(s.end_us - s.start_us);
    span_us_[s.name] += dur;
    auto it = child_us.find(s.id);
    self_us_[s.layer] += dur - (it == child_us.end() ? 0.0 : it->second);
  }
}

double Ledger::Count(const std::string& key) const {
  auto it = counts_.find(key);
  return it == counts_.end() ? 0.0 : it->second;
}

double Ledger::SelfMs(const std::string& layer) const {
  auto it = self_us_.find(layer);
  return it == self_us_.end() ? 0.0 : it->second / 1e3;
}

double Ledger::SpanMs(const std::string& name) const {
  auto it = span_us_.find(name);
  return it == span_us_.end() ? 0.0 : it->second / 1e3;
}

std::string Ledger::TraceJson() const {
  std::string out = "{\"traces\": [";
  for (size_t i = 0; i < retained_.size(); ++i) {
    if (i > 0) out += ",\n";
    out += retained_[i];
  }
  out += "]}\n";
  return out;
}

std::map<std::string, double> LayerMetrics(const Ledger& l) {
  const double req = l.Count("requests");
  auto per_req = [&](const std::string& key) {
    return Ratio(l.Count(key), req);
  };
  const double batch_groups = l.Count("span:AnswerBatch:batch_groups") +
                              l.Count("span:AnswerBatchCredulous:batch_groups");
  const double bank_groups =
      l.Count("span:AnswerBatch:batch_bank_groups") +
      l.Count("span:AnswerBatchCredulous:batch_bank_groups");
  const double tmpl_requests = l.Count("tmpl.requests");
  const double serve_requests = l.Count("serve.requests");
  const double ground_runs = l.Count("ground.runs");

  std::map<std::string, double> m;
  m["sat.conflicts"] = per_req("layer:reasoner:conflicts_consumed");
  m["minimal.sat_calls"] = per_req("minimal.sat_calls");
  m["minimal.minimizations"] = per_req("minimal.minimizations");
  m["minimal.models_enumerated"] = per_req("minimal.models_enumerated");
  m["minimal.cegar_iterations"] = per_req("minimal.cegar_iterations");
  m["minimal.self_ms"] = Ratio(l.SelfMs("minimal"), req);
  m["oracle.base_loads"] = per_req("oracle.base_loads");
  m["oracle.solves"] = per_req("oracle.solves");
  m["oracle.contexts_opened"] = per_req("oracle.contexts_opened");
  m["oracle.guarded_clauses"] = per_req("oracle.guarded_clauses");
  m["oracle.cache_hit_ratio"] =
      Ratio(l.Count("oracle.cache_hits"),
            l.Count("oracle.cache_hits") + l.Count("oracle.cache_misses"));
  m["oracle.cache_evictions"] = per_req("oracle.cache_evictions");
  m["core.construct_ms"] = Ratio(l.SpanMs("bench.construct"), req);
  m["core.query_self_ms"] = Ratio(l.SelfMs("reasoner"), req);
  m["analysis.dispatch_generic"] = per_req("analysis.dispatch_generic");
  m["analysis.dispatch_downgrades"] = per_req("analysis.dispatch_downgrades");
  m["batch.cache_hit_ratio"] =
      Ratio(l.Count("layer:reasoner:batch_cache_hits"),
            l.Count("layer:reasoner:batch_unique"));
  m["batch.cache_evictions"] = per_req("batch.cache_evictions");
  m["batch.bank_hit_ratio"] =
      Ratio(l.Count("layer:reasoner:batch_bank_store_hits"), bank_groups);
  m["batch.bank_models"] =
      Ratio(l.Count("span:AnswerBatch:models_enumerated") +
                l.Count("span:AnswerBatchCredulous:models_enumerated"),
            req);
  m["batch.fallback_groups"] = Ratio(batch_groups - bank_groups, req);
  m["batch.unique_ratio"] = Ratio(l.Count("layer:reasoner:batch_unique"),
                                  l.Count("layer:reasoner:batch_queries"));
  m["tmpl.self_ms"] = Ratio(l.SelfMs("tmpl"), tmpl_requests);
  m["tmpl.candidates"] = Ratio(l.Count("tmpl.candidates"), tmpl_requests);
  m["tmpl.pruned_ratio"] =
      Ratio(l.Count("tmpl.pruned"), l.Count("tmpl.full_space"));
  m["ground.parse_ms"] = Ratio(l.SpanMs("bench.parse"), ground_runs);
  m["ground.ground_ms"] = Ratio(l.SpanMs("bench.ground"), ground_runs);
  m["ground.clauses"] = Ratio(l.Count("ground.clauses"), ground_runs);
  m["serve.self_ms"] = Ratio(l.SelfMs("serve"), serve_requests);
  m["serve.rungs_per_request"] = Ratio(l.Count("serve.rungs"), serve_requests);
  m["serve.escalations"] = Ratio(l.Count("serve.escalations"), serve_requests);
  m["serve.reload_ms"] =
      Ratio(l.SpanMs("bench.reload"), l.Count("serve.reloads"));
  return m;
}

}  // namespace ddbench
