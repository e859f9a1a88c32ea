#include "semantics/icwa.h"

#include "sat/solver.h"
#include "util/macros.h"
#include "util/string_util.h"

namespace dd {

namespace {

using sat::SolveResult;

// The engine over DB+: without negation DB+ = DB, so the caller's view (or,
// when null, the base class's private engine over DB) serves.
std::shared_ptr<MinimalEngine> PositivizedEngine(
    const Database& db, const SemanticsOptions& opts,
    std::shared_ptr<MinimalEngine> view) {
  if (!db.HasNegation()) return view;
  return std::make_shared<MinimalEngine>(db.Positivize(),
                                         opts.minimal_options());
}

}  // namespace

IcwaSemantics::IcwaSemantics(const Database& db, const SemanticsOptions& opts,
                             std::shared_ptr<MinimalEngine> view)
    : Semantics(db, opts, PositivizedEngine(db, opts, std::move(view))) {}

IcwaSemantics::IcwaSemantics(const Database& db, Stratification strat,
                             const SemanticsOptions& opts,
                             std::shared_ptr<MinimalEngine> view)
    : Semantics(db, opts, PositivizedEngine(db, opts, std::move(view))),
      strat_(std::move(strat)),
      strat_provided_(true) {}

Status IcwaSemantics::EnsureStratified() {
  if (!strat_.has_value()) {
    DD_ASSIGN_OR_RETURN(Stratification s, Stratify(db_));
    strat_ = std::move(s);
  }
  if (stratum_partitions_.empty()) {
    const int n = db_.num_vars();
    for (int i = 0; i < strat_->num_strata; ++i) {
      Partition p;
      p.p = Interpretation(n);
      p.q = Interpretation(n);
      p.z = Interpretation(n);
      for (Var v = 0; v < n; ++v) {
        int lv = strat_->atom_level[static_cast<size_t>(v)];
        if (lv == i) {
          p.p.Insert(v);
        } else if (lv < i) {
          p.q.Insert(v);
        } else {
          p.z.Insert(v);
        }
      }
      stratum_partitions_.push_back(std::move(p));
    }
  }
  return Status::OK();
}

Result<bool> IcwaSemantics::IsIcwaModel(const Interpretation& m) {
  DD_RETURN_IF_ERROR(EnsureStratified());
  if (!engine_->db().Satisfies(m)) return false;
  for (const Partition& p : stratum_partitions_) {
    bool minimal = engine_->IsMinimal(m, p);
    if (engine_->interrupted()) return engine_->interrupt_status();
    if (!minimal) return false;
  }
  return true;
}

Result<std::optional<Interpretation>> IcwaSemantics::FindCounterexample(
    const Formula& f) {
  DD_RETURN_IF_ERROR(EnsureStratified());
  // One stratum: ICWA = ECWA_{V;∅}(DB+) = MM(DB+), the memoized question
  // EGCWA asks (DB+ = DB here, so a Reasoner's view answers it once).
  if (stratum_partitions_.size() == 1) {
    return MinimalCounterexample(f, stratum_partitions_[0]);
  }
  MinimalEngine* e = engine();
  const int n = e->db().num_vars();  // DB+
  // Counterexample-guided search for an ICWA model violating F. The
  // candidates are models of DB+ ∧ ¬F outside the blocked regions, drawn
  // from one guarded context on the engine's session (no CNF reload).
  MinimalEngine::Query cand(e);
  {
    std::vector<std::vector<Lit>> fcnf;
    Var next = cand.NextVar();
    Lit fl = TseitinEncode(f, &next, &fcnf);
    cand.ReserveVars(next);
    for (auto& cl : fcnf) cand.AddClause(std::move(cl));
    cand.AddUnit(~fl);
  }

  int64_t iterations = 0;
  for (;;) {
    if (++iterations > opts_.max_candidates) {
      return Status::ResourceExhausted(
          "ICWA inference exceeded the candidate budget");
    }
    SolveResult r = cand.Solve();
    // kUnknown (deadline / conflict budget / injected fault) must not be
    // read as kUnsat ("inferred").
    if (e->interrupted()) return e->interrupt_status();
    if (r != SolveResult::kSat) return std::optional<Interpretation>();
    Interpretation m = cand.Model(n);

    int failing = -1;
    for (size_t i = 0; i < stratum_partitions_.size(); ++i) {
      bool minimal = e->IsMinimal(m, stratum_partitions_[i]);
      if (e->interrupted()) return e->interrupt_status();
      if (!minimal) {
        failing = static_cast<int>(i);
        break;
      }
    }
    if (failing < 0) return std::optional<Interpretation>(std::move(m));

    const Partition& pi = stratum_partitions_[static_cast<size_t>(failing)];
    Interpretation mm = e->Minimize(m, pi);
    if (e->interrupted()) return e->interrupt_status();
    // Probe: a ¬F-model sharing mm's exact <Pᵢ,Qᵢ>-projection would be
    // ECWA_i-minimal; if none exists the whole region is safe to block
    // (its ICWA models, if any, satisfy F). The probe runs in its own
    // context, free of the candidate context's blocks.
    MinimalEngine::Query probe(e);
    {
      std::vector<std::vector<Lit>> pcnf;
      Var pnext = probe.NextVar();
      Lit pl = TseitinEncode(f, &pnext, &pcnf);
      probe.ReserveVars(pnext);
      for (auto& cl : pcnf) probe.AddClause(std::move(cl));
      probe.AddUnit(~pl);
    }
    std::vector<Lit> proj;
    for (Var v = 0; v < n; ++v) {
      if (pi.p.Contains(v) || pi.q.Contains(v)) {
        proj.push_back(Lit::Make(v, mm.Contains(v)));
      }
    }
    SolveResult pr = probe.Solve(proj);
    if (e->interrupted()) {
      // kUnknown must not fall through to region-blocking: the region might
      // hold the counterexample the probe failed to find.
      return e->interrupt_status();
    }
    std::vector<Lit> block;
    if (pr == SolveResult::kSat) {
      // Inconclusive region: exclude exactly m and keep searching.
      for (Var v = 0; v < n; ++v) {
        block.push_back(m.Contains(v) ? Lit::Neg(v) : Lit::Pos(v));
      }
    } else {
      // Block the whole region {P_i ⊇ mm∩P_i, Q_i = mm∩Q_i}.
      for (Var v = 0; v < n; ++v) {
        if (pi.p.Contains(v) && mm.Contains(v)) block.push_back(Lit::Neg(v));
        if (pi.q.Contains(v)) {
          block.push_back(mm.Contains(v) ? Lit::Neg(v) : Lit::Pos(v));
        }
      }
      // The region is everything: no counterexample anywhere.
      if (block.empty()) return std::optional<Interpretation>();
    }
    cand.AddClause(std::move(block));
  }
}

Result<bool> IcwaSemantics::HasModel() {
  DD_RETURN_IF_ERROR(EnsureStratified());
  if (!db_.HasIntegrityClauses()) {
    // Paper Section 4: a stratified database (no integrity clauses) always
    // has ICWA models — the O(1) entry.
    return true;
  }
  DD_ASSIGN_OR_RETURN(std::vector<Interpretation> ms, Models(1));
  return !ms.empty();
}

Result<std::vector<Interpretation>> IcwaSemantics::Models(int64_t cap) {
  DD_RETURN_IF_ERROR(EnsureStratified());
  if (cap < 0) cap = opts_.max_models;
  // ICWA models are ECWA_1-minimal; enumerate those and filter by the
  // remaining strata.
  std::vector<Interpretation> out;
  Status inner = Status::OK();
  int64_t candidates = 0;
  engine_->EnumerateAllMinimalModels(
      stratum_partitions_[0], /*cap=*/-1, [&](const Interpretation& m) {
        if (++candidates > opts_.max_candidates) {
          inner = Status::ResourceExhausted("too many ECWA_1 models");
          return false;
        }
        bool ok = true;
        for (size_t i = 1; i < stratum_partitions_.size(); ++i) {
          bool minimal = engine_->IsMinimal(m, stratum_partitions_[i]);
          if (engine_->interrupted()) return false;  // stop; handled below
          if (!minimal) {
            ok = false;
            break;
          }
        }
        if (ok) {
          out.push_back(m);
          if (static_cast<int64_t>(out.size()) >= cap) return false;
        }
        return true;
      });
  if (engine_->interrupted()) {
    // Anytime payload: each collected model passed every stratum check
    // before the interrupt, so all of them ARE ICWA models.
    partial_models_ = std::move(out);
    return engine_->interrupt_status();
  }
  DD_RETURN_IF_ERROR(inner);
  return out;
}

}  // namespace dd
