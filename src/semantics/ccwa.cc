#include "semantics/ccwa.h"

#include "util/macros.h"

namespace dd {

CcwaSemantics::CcwaSemantics(const Database& db, Partition pqz,
                             const SemanticsOptions& opts,
                             std::shared_ptr<MinimalEngine> view)
    : ClosedWorldSemantics(db, opts, std::move(view)), pqz_(std::move(pqz)) {
  DD_CHECK(pqz_.Validate().ok());
  DD_CHECK(pqz_.num_vars() == db.num_vars());
}

Result<bool> CcwaSemantics::HasModel() {
  // Every <P;Z>-minimal model satisfies the augmentation, so CCWA(DB) is
  // nonempty exactly when DB is satisfiable.
  return MinimalHasModel();
}

Result<bool> CcwaSemantics::InfersLiteral(Lit l) {
  if (l.negative() && pqz_.p.Contains(l.var())) {
    // CCWA |= ¬x (x ∈ P) iff MM(DB;P;Z) |= ¬x: if so, ¬x is part of the
    // augmentation; if x is true in some <P;Z>-minimal model M, then M is
    // itself a CCWA model containing x. The same memoized question as
    // ECWA's ¬x.
    DD_ASSIGN_OR_RETURN(
        std::optional<Interpretation> ce,
        MinimalCounterexample(FormulaNode::MakeLit(l), pqz_));
    return !ce.has_value();
  }
  return InfersFormula(FormulaNode::MakeLit(l));
}

Result<CountingInferenceResult> CcwaSemantics::InfersFormulaViaCounting(
    const Formula& f) {
  return CountingInference(engine(), pqz_, f);
}

Result<Interpretation> CcwaSemantics::ComputeNegatedAtoms() {
  Interpretation free = engine()->FreeAtoms(pqz_);
  if (engine()->interrupted()) return engine()->interrupt_status();
  Interpretation negs(db().num_vars());
  for (Var v = 0; v < db().num_vars(); ++v) {
    if (pqz_.p.Contains(v) && !free.Contains(v)) negs.Insert(v);
  }
  return negs;
}

}  // namespace dd
