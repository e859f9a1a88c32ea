#include "semantics/pdsm.h"

#include <algorithm>

#include "sat/solver.h"
#include "util/macros.h"
#include "util/string_util.h"

namespace dd {

namespace {

// Builds the bit-level vocabulary: t-bits share the source ids [0,n),
// nf-bits live at [n, 2n).
Vocabulary MakeBitVocabulary(const Database& db) {
  Vocabulary voc;
  for (Var v = 0; v < db.num_vars(); ++v) {
    voc.Intern("t(" + db.vocabulary().Name(v) + ")");
  }
  for (Var v = 0; v < db.num_vars(); ++v) {
    voc.Intern("nf(" + db.vocabulary().Name(v) + ")");
  }
  return voc;
}

// Fills `bit_db` with the two-bit encoding of DB's 3-valued models and
// returns the selector skeleton of every 3-valued reduct (pdsm.h),
// recording the clauses with a negative body in `guarded`. Both start from
// the consistency clauses t(v) -> nf(v) and, per source clause (heads a,
// pos body b, neg body c), the split of value(head) >= value(body) into
//   body >= 1/2  ->  head >= 1/2 :   ∨ nf(a) ∨ ¬nf(b)...
//   body  = 1    ->  head  = 1   :   ∨ t(a)  ∨ ¬t(b)...
// The bit database adds the negative body to the heads (value(¬c) >= 1/2
// iff ¬t(c); value(¬c) = 1 iff ¬nf(c)); the skeleton instead guards the
// two clauses with a_j (κ >= 1/2) and b_j (κ = 1).
Database BuildBitDatabases(const Database& db, Database* bit_db,
                           std::vector<int>* guarded) {
  for (int i = 0; i < db.num_clauses(); ++i) {
    if (!db.clause(i).neg_body().empty()) guarded->push_back(i);
  }
  const Var n = db.num_vars();
  const Var k = static_cast<Var>(guarded->size());
  Vocabulary voc = bit_db->vocabulary();
  voc.MakeFresh(k, "pdsm_half_sel");
  voc.MakeFresh(k, "pdsm_one_sel");
  Database skeleton(std::move(voc));
  auto t = [](Var v) { return v; };
  auto nf = [n](Var v) { return n + v; };
  for (Var v = 0; v < n; ++v) {
    bit_db->AddClause(Clause({nf(v)}, {t(v)}, {}));
    skeleton.AddClause(Clause({nf(v)}, {t(v)}, {}));
  }
  Var j = 0;
  for (const Clause& c : db.clauses()) {
    std::vector<Var> heads_a, heads_b, body_a, body_b;
    for (Var a : c.heads()) {
      heads_a.push_back(nf(a));
      heads_b.push_back(t(a));
    }
    for (Var b : c.pos_body()) {
      body_a.push_back(nf(b));
      body_b.push_back(t(b));
    }
    if (c.neg_body().empty()) {
      bit_db->AddClause(Clause(heads_a, body_a, {}));
      bit_db->AddClause(Clause(heads_b, body_b, {}));
    } else {
      std::vector<Var> bit_heads_a = heads_a, bit_heads_b = heads_b;
      for (Var neg : c.neg_body()) {
        bit_heads_a.push_back(t(neg));
        bit_heads_b.push_back(nf(neg));
      }
      bit_db->AddClause(Clause(std::move(bit_heads_a), body_a, {}));
      bit_db->AddClause(Clause(std::move(bit_heads_b), body_b, {}));
      body_a.push_back(2 * n + j);
      body_b.push_back(2 * n + k + j);
      ++j;
    }
    skeleton.AddClause(Clause(std::move(heads_a), std::move(body_a), {}));
    skeleton.AddClause(Clause(std::move(heads_b), std::move(body_b), {}));
  }
  return skeleton;
}

}  // namespace

PdsmSemantics::Encoding PdsmSemantics::Encode(const Database& db,
                                              const SemanticsOptions& opts) {
  Encoding enc{Database(MakeBitVocabulary(db)), {}, nullptr};
  enc.stability = std::make_shared<MinimalEngine>(
      BuildBitDatabases(db, &enc.bit_db, &enc.guarded),
      opts.minimal_options());
  return enc;
}

PdsmSemantics::PdsmSemantics(const Database& db, const SemanticsOptions& opts)
    : PdsmSemantics(db, opts, Encode(db, opts)) {}

PdsmSemantics::PdsmSemantics(const Database& db, const SemanticsOptions& opts,
                             Encoding enc)
    : Semantics(db, opts, std::move(enc.stability)),
      bit_db_(std::move(enc.bit_db)),
      guarded_(std::move(enc.guarded)) {
  const Var n = db_.num_vars();
  stability_pqz_ = Partition::MinimizeAll(engine_->db().num_vars());
  for (Var v = 2 * n; v < engine_->db().num_vars(); ++v) {
    stability_pqz_.p.Erase(v);
    stability_pqz_.q.Insert(v);
  }
}

PartialInterpretation PdsmSemantics::DecodeBits(
    const Interpretation& bits) const {
  const Var n = db_.num_vars();
  PartialInterpretation out(n);
  for (Var v = 0; v < n; ++v) {
    bool tb = bits.Contains(v);
    bool nfb = bits.Contains(n + v);
    out.SetValue(v, tb ? TruthValue::kTrue
                       : (nfb ? TruthValue::kUndef : TruthValue::kFalse));
  }
  return out;
}

Interpretation PdsmSemantics::EncodeBits(const PartialInterpretation& i) const {
  const Var n = db_.num_vars();
  Interpretation out(2 * n);
  for (Var v = 0; v < n; ++v) {
    if (i.Value(v) == TruthValue::kTrue) out.Insert(v);
    if (i.Value(v) != TruthValue::kFalse) out.Insert(n + v);
  }
  return out;
}

Result<bool> PdsmSemantics::IsPartialStable(const PartialInterpretation& i) {
  if (i.num_vars() != db_.num_vars()) {
    return Status::InvalidArgument("interpretation size mismatch");
  }
  // bits(I) ∪ sel(I): the two-bit encoding plus the selectors that turn
  // the skeleton into the reduct DB^I.
  const Var n = db_.num_vars();
  const Var k = static_cast<Var>(guarded_.size());
  Interpretation x(engine_->db().num_vars());
  for (Var v : EncodeBits(i).TrueAtoms()) x.Insert(v);
  for (Var j = 0; j < k; ++j) {
    // Constant value κ of the (replaced) negative body.
    TruthValue kappa = TruthValue::kTrue;
    for (Var neg : db_.clause(guarded_[static_cast<size_t>(j)]).neg_body()) {
      kappa = std::min(kappa, Negate(i.Value(neg)));
    }
    if (kappa != TruthValue::kFalse) x.Insert(2 * n + j);
    if (kappa == TruthValue::kTrue) x.Insert(2 * n + k + j);
  }
  bool stable = engine_->IsMinimal(x, stability_pqz_);
  if (engine_->interrupted()) return engine_->interrupt_status();
  return stable;
}

Status PdsmSemantics::ForEachPartialStable(
    const std::function<bool(const PartialInterpretation&)>& visit) {
  // Candidates: 3-valued models of DB, enumerated over the bit encoding
  // with exact blocking.
  sat::Solver s;
  s.SetBudget(opts_.budget);
  s.EnsureVars(bit_db_.num_vars());
  for (const auto& cl : bit_db_.ToCnf()) s.AddClause(cl);

  int64_t candidates = 0;
  for (;;) {
    sat::SolveResult r = s.Solve();
    if (r == sat::SolveResult::kUnknown) {
      // kUnknown is not "no more candidates": stopping here would silently
      // truncate the partial-stable search and flip inferences.
      MinimalStats ms;
      ms.sat_calls = s.stats().solve_calls;
      engine_->AbsorbStats(ms);
      return BudgetOrUnknownStatus(opts_.budget,
                                   "PDSM candidate oracle unknown");
    }
    if (r != sat::SolveResult::kSat) break;
    if (++candidates > opts_.max_candidates) {
      return Status::ResourceExhausted(
          StrFormat("PDSM candidate search exceeded %lld interpretations",
                    static_cast<long long>(opts_.max_candidates)));
    }
    Interpretation bits = s.Model(bit_db_.num_vars());
    PartialInterpretation i = DecodeBits(bits);
    DD_ASSIGN_OR_RETURN(bool stable, IsPartialStable(i));
    if (stable && !visit(i)) return Status::OK();
    // Exclude exactly this bit pattern.
    std::vector<Lit> block;
    for (Var v = 0; v < bit_db_.num_vars(); ++v) {
      block.push_back(bits.Contains(v) ? Lit::Neg(v) : Lit::Pos(v));
    }
    if (block.empty()) break;
    s.AddClause(std::move(block));
  }
  return Status::OK();
}

Result<std::vector<PartialInterpretation>> PdsmSemantics::PartialModels(
    int64_t cap) {
  if (cap < 0) cap = opts_.max_models;
  std::vector<PartialInterpretation> out;
  DD_RETURN_IF_ERROR(
      ForEachPartialStable([&](const PartialInterpretation& i) {
        out.push_back(i);
        return static_cast<int64_t>(out.size()) < cap;
      }));
  return out;
}

Result<std::vector<Interpretation>> PdsmSemantics::Models(int64_t cap) {
  if (cap < 0) cap = opts_.max_models;
  std::vector<Interpretation> out;
  Status st = ForEachPartialStable([&](const PartialInterpretation& i) {
    if (i.IsTotal()) {
      out.push_back(i.TrueSet());
      if (static_cast<int64_t>(out.size()) >= cap) return false;
    }
    return true;
  });
  if (!st.ok()) {
    // Anytime payload: each collected model is a verified total stable
    // model; the enumeration is merely truncated.
    if (st.IsBudgetExhaustion()) partial_models_ = std::move(out);
    return st;
  }
  return out;
}

Result<bool> PdsmSemantics::InfersFormula(const Formula& f) {
  DD_ASSIGN_OR_RETURN(std::optional<PartialInterpretation> ce,
                      FindPartialCounterexample(f));
  return !ce.has_value();
}

Result<std::optional<PartialInterpretation>>
PdsmSemantics::FindPartialCounterexample(const Formula& f) {
  std::optional<PartialInterpretation> out;
  DD_RETURN_IF_ERROR(
      ForEachPartialStable([&](const PartialInterpretation& i) {
        if (f->Eval3(i) != TruthValue::kTrue) {
          out = i;
          return false;
        }
        return true;
      }));
  return out;
}

Result<std::optional<Interpretation>> PdsmSemantics::FindCounterexample(
    const Formula& f) {
  DD_ASSIGN_OR_RETURN(std::optional<PartialInterpretation> ce,
                      FindPartialCounterexample(f));
  if (!ce.has_value()) return std::optional<Interpretation>();
  return std::optional<Interpretation>(ce->TrueSet());
}

Result<bool> PdsmSemantics::HasModel() {
  if (db_.IsPositive()) {
    // The reduct of a positive DB is the DB itself; its 3-valued models
    // form a nonempty finite poset under the truth order, so truth-minimal
    // ones (= partial stable models) always exist — Table 1's O(1) entry.
    return true;
  }
  bool found = false;
  DD_RETURN_IF_ERROR(ForEachPartialStable([&](const PartialInterpretation&) {
    found = true;
    return false;
  }));
  return found;
}

}  // namespace dd
