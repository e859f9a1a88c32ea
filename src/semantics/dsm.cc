#include "semantics/dsm.h"

#include <algorithm>

#include "sat/solver.h"
#include "util/string_util.h"

namespace dd {

DsmSemantics::DsmSemantics(const Database& db, const SemanticsOptions& opts,
                           std::shared_ptr<MinimalEngine> view)
    : Semantics(db, opts, std::move(view)),
      all_(Partition::MinimizeAll(db.num_vars())),
      has_negation_(db.HasNegation()) {}

void DsmSemantics::ForEachEngine(
    const std::function<void(MinimalEngine*)>& fn) const {
  fn(engine_.get());
  if (stability_) fn(stability_.get());
}

MinimalEngine* DsmSemantics::Stability() {
  if (stability_) return stability_.get();
  const Var n = static_cast<Var>(db_.num_vars());
  for (int i = 0; i < db_.num_clauses(); ++i) {
    if (!db_.clause(i).neg_body().empty()) guarded_.push_back(i);
  }
  Vocabulary voc = db_.vocabulary();
  voc.MakeFresh(static_cast<int>(guarded_.size()), "dsm_sel");
  Database skeleton(std::move(voc));
  Var sel = n;
  for (const Clause& c : db_.clauses()) {
    if (c.neg_body().empty()) {
      skeleton.AddClause(c);
      continue;
    }
    std::vector<Var> body = c.pos_body();
    body.push_back(sel++);
    skeleton.AddClause(Clause(c.heads(), std::move(body), {}));
  }
  stability_pqz_ = Partition::MinimizeAll(skeleton.num_vars());
  for (Var v = n; v < skeleton.num_vars(); ++v) {
    stability_pqz_.p.Erase(v);
    stability_pqz_.q.Insert(v);
  }
  // opts_ carries the current budget; the trace follows the main engine.
  stability_ =
      std::make_unique<MinimalEngine>(skeleton, opts_.minimal_options());
  stability_->SetTrace(engine_->trace());
  return stability_.get();
}

Result<bool> DsmSemantics::IsStable(const Interpretation& m) {
  if (!has_negation_) {
    // DB^M = DB: stability is plain minimality (a memo hit for candidates
    // ForEachStable has just minimized).
    bool minimal = engine_->IsMinimal(m, all_);
    if (engine_->interrupted()) return engine_->interrupt_status();
    return minimal;
  }
  if (!db_.Satisfies(m)) return false;
  MinimalEngine* e = Stability();
  // M ∪ S_M: s_j is on iff clause guarded_[j] survives into DB^M. M
  // satisfies the skeleton because it satisfies DB.
  Interpretation m_sel(e->db().num_vars());
  for (Var v : m.TrueAtoms()) m_sel.Insert(v);
  const Var n = static_cast<Var>(db_.num_vars());
  for (size_t j = 0; j < guarded_.size(); ++j) {
    const std::vector<Var>& neg = db_.clause(guarded_[j]).neg_body();
    if (std::none_of(neg.begin(), neg.end(),
                     [&m](Var v) { return m.Contains(v); })) {
      m_sel.Insert(n + static_cast<Var>(j));
    }
  }
  bool stable = e->IsMinimal(m_sel, stability_pqz_);
  engine_->AbsorbStats(e->stats());
  e->ResetStats();
  if (e->interrupted()) return e->interrupt_status();
  return stable;
}

Status DsmSemantics::ForEachStable(
    const std::function<bool(const Interpretation&)>& visit) {
  if (!support_pruning_) {
    Status inner = Status::OK();
    int64_t candidates = 0;
    engine_->EnumerateMinimalProjections(
        all_, /*cap=*/-1, [&](const Interpretation& m) {
          if (++candidates > opts_.max_candidates) {
            inner = Status::ResourceExhausted(StrFormat(
                "DSM candidate search exceeded %lld minimal models",
                static_cast<long long>(opts_.max_candidates)));
            return false;
          }
          Result<bool> stable = IsStable(m);
          if (!stable.ok()) {
            inner = stable.status();
            return false;
          }
          if (*stable) return visit(m);
          return true;
        });
    if (engine_->interrupted()) return engine_->interrupt_status();
    return inner;
  }

  // Support-pruned search. Candidate solver: DB CNF + supportedness (every
  // stable model satisfies it, so no stable model is lost):
  //   a -> ∨_{rules r with a in head} y_{r,a}
  //   y_{r,a} -> pos body true, neg body false, other head atoms false.
  // Candidates found are minimized w.r.t. DB and region-blocked exactly as
  // in the unpruned enumeration; distinct minimal models are never
  // supersets of one another, so every stable model still surfaces.
  sat::Solver s;
  s.SetBudget(opts_.budget);
  s.EnsureVars(db_.num_vars());
  s.SetDefaultPolarity(false);
  for (const auto& cl : db_.ToCnf()) s.AddClause(cl);
  Var next = static_cast<Var>(db_.num_vars());
  std::vector<std::vector<Lit>> support(
      static_cast<size_t>(db_.num_vars()));
  for (const Clause& c : db_.clauses()) {
    for (Var a : c.heads()) {
      Var y = next++;
      s.EnsureVars(y + 1);
      for (Var b : c.pos_body()) s.AddBinary(Lit::Neg(y), Lit::Pos(b));
      for (Var neg : c.neg_body()) s.AddBinary(Lit::Neg(y), Lit::Neg(neg));
      for (Var h : c.heads()) {
        if (h != a) s.AddBinary(Lit::Neg(y), Lit::Neg(h));
      }
      support[static_cast<size_t>(a)].push_back(Lit::Pos(y));
    }
  }
  for (Var a = 0; a < db_.num_vars(); ++a) {
    std::vector<Lit> cl{Lit::Neg(a)};
    for (Lit y : support[static_cast<size_t>(a)]) cl.push_back(y);
    s.AddClause(std::move(cl));
  }

  int64_t candidates = 0;
  for (;;) {
    sat::SolveResult r = s.Solve();
    if (r == sat::SolveResult::kUnknown) {
      // Folding kUnknown into "no more candidates" would silently end the
      // stable-model search early and report wrong inferences.
      MinimalStats ms;
      ms.sat_calls = s.stats().solve_calls;
      engine_->AbsorbStats(ms);
      return BudgetOrUnknownStatus(opts_.budget,
                                   "DSM candidate oracle unknown");
    }
    if (r != sat::SolveResult::kSat) break;
    if (++candidates > opts_.max_candidates) {
      return Status::ResourceExhausted(
          StrFormat("DSM candidate search exceeded %lld candidates",
                    static_cast<long long>(opts_.max_candidates)));
    }
    Interpretation m = s.Model(db_.num_vars());
    Interpretation mm = engine_->Minimize(m, all_);
    if (engine_->interrupted()) {
      MinimalStats ms;
      ms.sat_calls = s.stats().solve_calls;
      engine_->AbsorbStats(ms);
      return engine_->interrupt_status();
    }
    DD_ASSIGN_OR_RETURN(bool stable, IsStable(mm));
    if (stable && !visit(mm)) break;
    // Block the region above mm (supersets can only be non-minimal).
    std::vector<Lit> block;
    for (Var v : mm.TrueAtoms()) block.push_back(Lit::Neg(v));
    if (block.empty()) break;  // the empty model's region is everything
    s.AddClause(std::move(block));
  }
  MinimalStats ms;
  ms.sat_calls = s.stats().solve_calls;
  engine_->AbsorbStats(ms);
  return Status::OK();
}

Result<std::vector<Interpretation>> DsmSemantics::Models(int64_t cap) {
  if (cap < 0) cap = opts_.max_models;
  std::vector<Interpretation> out;
  Status st = ForEachStable([&](const Interpretation& m) {
    out.push_back(m);
    return static_cast<int64_t>(out.size()) < cap;
  });
  if (!st.ok()) {
    // Anytime payload: every visited model passed the stability check, so
    // the collection is a sound (merely truncated) prefix.
    if (st.IsBudgetExhaustion()) partial_models_ = std::move(out);
    return st;
  }
  return out;
}

Result<std::optional<Interpretation>> DsmSemantics::FindCounterexample(
    const Formula& f) {
  // DSM = MM: the counterexample-guided entailment EGCWA asks, with no
  // stable-model enumeration.
  if (!has_negation_) return MinimalCounterexample(f, all_);
  std::optional<Interpretation> out;
  DD_RETURN_IF_ERROR(ForEachStable([&](const Interpretation& m) {
    if (!f->Eval(m)) {
      out = m;
      return false;
    }
    return true;
  }));
  return out;
}

Result<bool> DsmSemantics::HasModel() {
  // DSM = MM without negation: O(1) when positive, else satisfiability.
  if (!has_negation_) return MinimalHasModel();
  bool found = false;
  DD_RETURN_IF_ERROR(ForEachStable([&](const Interpretation&) {
    found = true;
    return false;
  }));
  return found;
}

}  // namespace dd
