// serve_mix: one closed-loop client against QueryServer.
//
// The database is a grounded first-order program of kRegions independent
// two-ring colouring regions (the bench_template family): per region a
// swap ring whose colour choice is genuinely disjunctive and a forced
// ring pinned by one fact, so the whole database has 2^kRegions intended
// models and one whole-database model bank per semantics. The mix:
//   * Zipf-skewed QUERY (skeptical) and BRAVE literal requests over
//     GCWA / EGCWA / DSM / PWS;
//   * a small share of ANSWERS templates;
//   * every kWriteEvery requests a write: one forced-ring fact toggles
//     between definite and disjunctive, the program is re-parsed and
//     re-ground, and Reload swaps the session (new cache epoch, cold
//     banks).
// Reference: a fresh Reasoner per database state, asked each distinct
// read through its single-query entry points, and each template's
// instantiations one by one.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/reasoner.h"
#include "ground/grounder.h"
#include "ground/parser.h"
#include "serve/server.h"
#include "tmpl/answer.h"
#include "tmpl/enumerate.h"
#include "tmpl/template.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "workload.h"

namespace ddbench {

namespace {

constexpr int kRegions = 6;
constexpr int kWriteEvery = 5000;       ///< requests between writes
constexpr double kTemplateShare = 0.01; ///< ANSWERS share of the reads
constexpr double kZipfExponent = 1.0;
constexpr size_t kReserveRequests = size_t{1} << 22;

constexpr dd::SemanticsKind kKinds[] = {
    dd::SemanticsKind::kGcwa, dd::SemanticsKind::kEgcwa,
    dd::SemanticsKind::kDsm, dd::SemanticsKind::kPws};
constexpr dd::batch::BatchMode kModes[] = {dd::batch::BatchMode::kSkeptical,
                                           dd::batch::BatchMode::kBrave};
const char* const kTemplates[] = {"color(X,r)", "color(X,g)",
                                  "edge(X,Y), color(Y,r)"};

/// Seeded shape of one region: where the inner colour swap sits.
struct Region {
  int swap_at;  ///< inner colour-swapping edge (x_swap_at, x_swap_at+1)
};

/// Ring sizes, fixed so that every seed serves the same key universe. A
/// region grounds to 3m + 2j atoms (swap nodes take both colours, forced
/// nodes one; one edge per node): 6 × 44 atoms × 2 polarities × 4
/// semantics × 2 modes = 4224 request keys, above the 4096-entry answer
/// cache.
constexpr int kSwapNodes = 10;
constexpr int kForcedNodes = 7;

/// The program in one of its two states: the writes toggle region 0's
/// forced-ring fact between `color(y0_1,r).` and the choice
/// `color(y0_1,r) | color(y0_1,g).`, so each write edits one fact and the
/// reference needs two databases. State 1 only adds atoms, so no read
/// (keys come from state 0) names an atom the served database lacks.
std::string Program(const std::vector<Region>& regions, int state) {
  std::string p;
  for (int r = 0; r < static_cast<int>(regions.size()); ++r) {
    p += dd::StrFormat("color(x%d_1,r) | color(x%d_1,g).\n", r, r);
    for (int i = 1; i < kSwapNodes; ++i) {
      p += dd::StrFormat("%s(x%d_%d,x%d_%d).\n",
                         i == regions[r].swap_at ? "sedge" : "edge", r, i, r,
                         i + 1);
    }
    p += dd::StrFormat("sedge(x%d_%d,x%d_1).\n", r, kSwapNodes, r);
    p += r == 0 && state == 1
             ? dd::StrFormat("color(y%d_1,r) | color(y%d_1,g).\n", r, r)
             : dd::StrFormat("color(y%d_1,r).\n", r);
    for (int i = 1; i < kForcedNodes; ++i) {
      p += dd::StrFormat("edge(y%d_%d,y%d_%d).\n", r, i, r, i + 1);
    }
    p += dd::StrFormat("edge(y%d_%d,y%d_1).\n", r, kForcedNodes, r);
  }
  p += "color(Y,C) :- edge(X,Y), color(X,C).\n";
  p += "color(Y,r) :- sedge(X,Y), color(X,g).\n";
  p += "color(Y,g) :- sedge(X,Y), color(X,r).\n";
  p += ":- color(X,r), color(X,g).\n";
  return p;
}

/// One read request shape.
struct Key {
  dd::SemanticsKind kind;
  dd::batch::BatchMode mode;
  std::string literal;  ///< "a" or "not a"
};

/// Zipf(kZipfExponent) sampler over ranks [0, n).
class Zipf {
 public:
  explicit Zipf(int n) : cdf_(n) {
    double sum = 0;
    for (int k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(k + 1.0, kZipfExponent);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  int Sample(dd::Rng* rng) const {
    const double u = rng->NextDouble();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<int>(it - cdf_.begin()),
                    static_cast<int>(cdf_.size()) - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Everything the timed phase needs, rebuilt by every set-up repetition.
struct Setup {
  std::vector<Region> regions;
  std::vector<Key> keys;  ///< in Zipf rank order
  std::unique_ptr<dd::serve::QueryServer> server;
  /// Warm-up reads (key index, verdict), audited with the timed ones.
  std::vector<std::pair<int, dd::Trilean>> warm;
};

/// Parse + ground one program text inside bench spans (traced run).
dd::Result<dd::Database> GroundText(const std::string& text,
                                    dd::obs::TraceContext* trace,
                                    Ledger* ledger) {
  dd::Result<dd::ground::FoProgram> fo = [&] {
    dd::obs::ScopedSpan span(trace, "bench.parse", "bench");
    return dd::ground::ParseProgram(text);
  }();
  if (!fo.ok()) return fo.status();
  dd::obs::ScopedSpan span(trace, "bench.ground", "bench");
  dd::Result<dd::Database> db = dd::ground::GroundBottomUp(*fo);
  if (trace != nullptr && db.ok()) {
    ledger->Add("ground.runs", 1);
    ledger->Add("ground.clauses", db->num_clauses());
  }
  return db;
}

dd::Result<Setup> MakeSetup(uint64_t seed, dd::obs::TraceContext* trace,
                            Ledger* ledger) {
  Setup s;
  dd::Rng rng(dd::DeriveSeed(seed, 0));
  for (int r = 0; r < kRegions; ++r) {
    s.regions.push_back({static_cast<int>(rng.Range(2, kSwapNodes - 2))});
  }
  dd::Result<dd::Database> db =
      GroundText(Program(s.regions, 0), trace, ledger);
  if (!db.ok()) return db.status();
  std::vector<std::string> atoms;
  for (dd::Var v = 0; v < db->num_vars(); ++v) {
    atoms.push_back(db->vocabulary().Name(v));
  }
  for (const std::string& a : atoms) {
    for (const std::string neg : {"", "not "}) {
      for (dd::SemanticsKind kind : kKinds) {
        for (dd::batch::BatchMode mode : kModes) {
          s.keys.push_back({kind, mode, neg + a});
        }
      }
    }
  }
  rng.Shuffle(&s.keys);
  dd::serve::ServeOptions opts;
  opts.trace = trace;
  {
    dd::obs::ScopedSpan span(trace, "bench.server", "bench");
    s.server = std::make_unique<dd::serve::QueryServer>(std::move(*db), opts);
  }
  // Warm-up: one skeptical read per semantics builds its model bank, as a
  // long-running server would have before the measured traffic.
  for (dd::SemanticsKind kind : kKinds) {
    for (int k = 0; k < static_cast<int>(s.keys.size()); ++k) {
      const Key& key = s.keys[k];
      if (key.kind != kind || key.mode != dd::batch::BatchMode::kSkeptical) {
        continue;
      }
      dd::obs::ScopedSpan span(trace, "bench.submit", "bench");
      s.warm.emplace_back(
          k, s.server->Submit(kind, {key.literal, true}, key.mode).verdict);
      if (trace != nullptr) ledger->Add("requests", 1);
      break;
    }
  }
  return s;
}

struct SeenRead {
  int state;
  int key;
  dd::Trilean verdict;
};

struct SeenTemplate {
  int state;
  int tmpl;
  dd::SemanticsKind kind;
  dd::batch::BatchMode mode;
  std::vector<std::vector<std::string>> yes;
};

/// Reference verdicts for one database state: a fresh Reasoner's
/// single-query entry points, memoized per (kind, mode, query).
class Reference {
 public:
  explicit Reference(dd::Database db) : r_(std::move(db)) {}

  /// nullopt when the reference itself failed.
  std::optional<bool> Verdict(dd::SemanticsKind kind,
                              dd::batch::BatchMode mode,
                              const dd::batch::BatchQuery& q) {
    auto key = std::make_tuple(kind, mode, q.text);
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    std::optional<bool> v;
    if (mode == dd::batch::BatchMode::kBrave) {
      // The brave entry point takes a formula: "not a" reads as "~a".
      std::string f = q.text;
      if (q.is_literal && f.rfind("not ", 0) == 0) f.replace(0, 4, "~");
      dd::Result<dd::Trilean> t = r_.InfersCredulously(kind, f);
      if (t.ok() && *t != dd::Trilean::kUnknown) v = *t == dd::Trilean::kYes;
    } else {
      dd::Result<bool> b = q.is_literal ? r_.InfersLiteral(kind, q.text)
                                        : r_.InfersFormula(kind, q.text);
      if (b.ok()) v = *b;
    }
    memo_.emplace(key, v);
    return v;
  }

  const dd::Database& db() const { return r_.db(); }

 private:
  dd::Reasoner r_;
  std::map<std::tuple<dd::SemanticsKind, dd::batch::BatchMode, std::string>,
           std::optional<bool>>
      memo_;
};

}  // namespace

Outcome RunServeMix(const RunConfig& cfg) {
  Outcome out;
  TraceSlot slot;
  dd::obs::TraceContext* trace = cfg.traced ? slot.get() : nullptr;
  Setup setup;
  for (int rep = 0; rep < cfg.setup_reps; ++rep) {
    const double t0 = NowMs();
    dd::Result<Setup> s = MakeSetup(cfg.seed, trace, &out.ledger);
    out.setup_s.push_back((NowMs() - t0) / 1e3);
    if (!s.ok()) {
      ++out.wrong;  // the generated program must always ground
      return out;
    }
    setup = std::move(*s);
    if (trace != nullptr) slot.FlushInto(&out.ledger);
  }
  dd::serve::QueryServer& server = *setup.server;
  const Zipf zipf(static_cast<int>(setup.keys.size()));
  dd::Rng rng(dd::DeriveSeed(cfg.seed, 1));

  // Reserved up front (untouched pages cost no memory) so that peak RSS
  // grows with the requests served, not in vector-doubling steps.
  std::vector<SeenRead> reads;
  reads.reserve(kReserveRequests);
  out.latency_ms.reserve(kReserveRequests);
  for (const auto& [key, verdict] : setup.warm) {
    reads.push_back({0, key, verdict});
  }
  std::vector<SeenTemplate> templates;
  int epoch = 0;
  // Answer-cache insertions this epoch (one new AnswerCache per Reload):
  // an LRU insertion into a full cache evicts exactly one entry. Each
  // warm-up read inserted one.
  double epoch_insertions = static_cast<double>(setup.warm.size());
  const double cache_capacity =
      static_cast<double>(server.options().cache_capacity);
  auto close_epoch = [&] {
    out.ledger.Add("batch.cache_evictions",
                   std::max(0.0, epoch_insertions - cache_capacity));
    epoch_insertions = 0;
  };

  const StopRule stop(cfg);
  const double start = NowMs();
  while (!stop.Done(out.attempted)) {
    const int state = epoch % 2;
    const double t0 = NowMs();
    bool failed = false;
    if (out.attempted > 0 && out.attempted % kWriteEvery == 0) {
      // Write: edit one fact, re-ground, Reload.
      dd::Result<dd::Database> db =
          GroundText(Program(setup.regions, 1 - state), trace, &out.ledger);
      if (db.ok()) {
        dd::obs::ScopedSpan span(trace, "bench.reload", "bench");
        failed = !server.Reload(std::move(*db)).ok();
      } else {
        failed = true;
      }
      out.reload_ms.push_back(NowMs() - t0);
      if (trace != nullptr) close_epoch();
      ++epoch;
      if (trace != nullptr) out.ledger.Add("serve.reloads", 1);
    } else if (rng.Chance(kTemplateShare)) {
      SeenTemplate t;
      t.state = state;
      t.tmpl = static_cast<int>(rng.Below(std::size(kTemplates)));
      t.kind = kKinds[rng.Below(std::size(kKinds))];
      t.mode = kModes[rng.Below(std::size(kModes))];
      dd::serve::QueryServer::TemplateResult r;
      {
        dd::obs::ScopedSpan span(trace, "bench.template", "bench");
        r = server.SubmitTemplate(t.kind, kTemplates[t.tmpl], t.mode);
      }
      out.template_ms.push_back(NowMs() - t0);
      failed = !r.status.ok() || !r.answer.unknown.empty();
      if (!failed) {
        t.yes = std::move(r.answer.yes);
        templates.push_back(std::move(t));
      }
      if (trace != nullptr) {
        out.ledger.Add("tmpl.requests", 1);
        out.ledger.Add("tmpl.candidates", r.answer.stats.candidates);
        out.ledger.Add("tmpl.full_space", r.answer.stats.full_space);
        out.ledger.Add("tmpl.pruned", r.answer.stats.pruned);
      }
    } else {
      const int k = zipf.Sample(&rng);
      const Key& key = setup.keys[k];
      dd::serve::QueryServer::Answer a;
      {
        dd::obs::ScopedSpan span(trace, "bench.submit", "bench");
        a = server.Submit(key.kind, {key.literal, true}, key.mode);
      }
      failed = !a.status.ok() || a.verdict == dd::Trilean::kUnknown;
      if (!failed) reads.push_back({state, k, a.verdict});
    }
    out.latency_ms.push_back(NowMs() - t0);
    ++out.attempted;
    if (failed) ++out.failed;
    if (trace != nullptr) {
      const double pause = NowMs();
      out.ledger.Add("requests", 1);
      epoch_insertions += trace->SumCounter("batch_unique") -
                          trace->SumCounter("batch_cache_hits") -
                          trace->SumCounter("batch_unknowns");
      slot.FlushInto(&out.ledger);
      out.paused_ms += NowMs() - pause;
    }
  }
  out.timed_s = (NowMs() - start - out.paused_ms) / 1e3;

  if (trace != nullptr) {
    close_epoch();
    const dd::serve::ServeStats st = server.stats();
    Ledger& l = out.ledger;
    l.Add("serve.requests", static_cast<double>(st.requests));
    l.Add("serve.rungs", static_cast<double>(st.rungs));
    l.Add("serve.escalations", static_cast<double>(st.escalations));
    // The serving path exposes oracle and dispatch work only through the
    // reasoner spans of its one-query batches.
    l.Add("minimal.sat_calls", l.Count("layer:reasoner:oracle_calls"));
    l.Add("minimal.minimizations", l.Count("layer:reasoner:minimizations"));
    l.Add("minimal.models_enumerated",
          l.Count("layer:reasoner:models_enumerated"));
    l.Add("minimal.cegar_iterations",
          l.Count("layer:reasoner:cegar_iterations"));
    l.Add("oracle.cache_hits", l.Count("layer:reasoner:cache_hits"));
    l.Add("oracle.cache_misses", l.Count("layer:reasoner:cache_misses"));
    l.Add("analysis.dispatch_generic",
          l.Count("layer:reasoner:dispatch_generic"));
    l.Add("analysis.dispatch_downgrades",
          l.Count("layer:reasoner:dispatch_downgrades"));
  }

  // Audit against one fresh reference Reasoner per database state.
  std::map<int, std::unique_ptr<Reference>> refs;
  auto ref_for = [&](int state) -> Reference* {
    std::unique_ptr<Reference>& r = refs[state];
    if (r == nullptr) {
      dd::Result<dd::Database> db =
          GroundText(Program(setup.regions, state), nullptr, nullptr);
      if (!db.ok()) return nullptr;
      r = std::make_unique<Reference>(std::move(*db));
    }
    return r.get();
  };
  for (const SeenRead& s : reads) {
    const Key& key = setup.keys[s.key];
    Reference* ref = ref_for(s.state);
    std::optional<bool> v =
        ref == nullptr ? std::nullopt
                       : ref->Verdict(key.kind, key.mode, {key.literal, true});
    ++out.audited;
    if (!v || *v != (s.verdict == dd::Trilean::kYes)) ++out.wrong;
  }
  for (const SeenTemplate& s : templates) {
    Reference* ref = ref_for(s.state);
    ++out.audited;
    dd::Result<dd::tmpl::Template> t =
        dd::tmpl::ParseTemplate(kTemplates[s.tmpl]);
    if (ref == nullptr || !t.ok()) {
      ++out.wrong;
      continue;
    }
    dd::Result<std::vector<std::vector<std::string>>> bindings =
        dd::tmpl::EnumerateBindings(
            *t, dd::tmpl::DomainIndex::Build(ref->db()), {});
    if (!bindings.ok()) {
      ++out.wrong;
      continue;
    }
    std::set<std::vector<std::string>> expect;
    bool ref_failed = false;
    for (const std::vector<std::string>& b : *bindings) {
      std::optional<bool> v = ref->Verdict(
          s.kind, s.mode, dd::tmpl::InstantiateQuery(*t, b, s.mode));
      if (!v) ref_failed = true;
      if (v.value_or(false)) expect.insert(b);
    }
    const std::set<std::vector<std::string>> got(s.yes.begin(), s.yes.end());
    if (ref_failed || expect != got) {
      ++out.wrong;
    }
  }
  return out;
}

}  // namespace ddbench
