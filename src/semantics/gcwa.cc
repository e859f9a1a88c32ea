#include "semantics/gcwa.h"

namespace dd {

GcwaSemantics::GcwaSemantics(const Database& db,
                             const SemanticsOptions& opts,
                             std::shared_ptr<MinimalEngine> view)
    : ClosedWorldSemantics(db, opts, std::move(view)),
      all_(Partition::MinimizeAll(db.num_vars())) {}

Result<bool> GcwaSemantics::InfersLiteral(Lit l) {
  if (l.negative()) {
    // GCWA |= ¬x iff MM(DB) |= ¬x: if so, ¬x is part of the augmentation;
    // if x is true in some minimal model M, then M is itself a GCWA model
    // containing x. The same memoized question as EGCWA's ¬x.
    bool entailed = engine()->MinimalEntails(FormulaNode::MakeLit(l), all_);
    if (engine()->interrupted()) return engine()->interrupt_status();
    return entailed;
  }
  return InfersFormula(FormulaNode::MakeLit(l));
}

Result<bool> GcwaSemantics::HasModel() {
  // MM(DB) ⊆ GCWA(DB): consistency coincides with classical satisfiability,
  // which is immediate for positive databases (the all-true interpretation
  // is a model) — the O(1) entry of Table 1.
  if (db().IsPositive()) return true;
  bool has = engine()->HasModel();
  if (engine()->interrupted()) return engine()->interrupt_status();
  return has;
}

Result<CountingInferenceResult> GcwaSemantics::InfersFormulaViaCounting(
    const Formula& f) {
  return CountingInference(engine(), all_, f);
}

Result<Interpretation> GcwaSemantics::ComputeNegatedAtoms() {
  Interpretation free = engine()->FreeAtoms(all_);
  if (engine()->interrupted()) return engine()->interrupt_status();
  Interpretation negs(db().num_vars());
  for (Var v = 0; v < db().num_vars(); ++v) {
    if (!free.Contains(v)) negs.Insert(v);
  }
  return negs;
}

}  // namespace dd
