// Generalized Closed World Assumption (Minker 82), paper Section 3.1.
//
//   GCWA(DB) = { M model of DB : M |= ¬x for every atom x that is false in
//                all minimal models of DB }
//
// Complexity (paper): literal inference Π₂ᵖ-complete; formula inference
// Π₂ᵖ-hard and in PᶺΣ₂ᵖ[O(log n)]; model existence O(1) for positive DBs,
// NP-complete with integrity clauses (= satisfiability of DB, since every
// minimal model is a GCWA model).
#ifndef DD_SEMANTICS_GCWA_H_
#define DD_SEMANTICS_GCWA_H_

#include "semantics/closed_world_base.h"
#include "semantics/counting_inference.h"

namespace dd {

class GcwaSemantics : public ClosedWorldSemantics {
 public:
  explicit GcwaSemantics(const Database& db,
                         const SemanticsOptions& opts = {},
                         std::shared_ptr<MinimalEngine> view = nullptr);

  SemanticsKind kind() const override { return SemanticsKind::kGcwa; }

  /// ¬x is inferred iff no minimal model contains x (one Σ₂ᵖ-style query);
  /// positive literals go through the augmented theory.
  Result<bool> InfersLiteral(Lit l) override;

  /// O(1) for positive databases (they always have minimal models); one
  /// SAT call otherwise.
  Result<bool> HasModel() override;

  /// The paper's Section 3.1 algorithm: O(log |V|) Σ₂ᵖ-oracle calls plus a
  /// final one. Returns the verdict together with the call count.
  Result<CountingInferenceResult> InfersFormulaViaCounting(const Formula& f);

 protected:
  Result<Interpretation> ComputeNegatedAtoms() override;

 private:
  Partition all_;
};

}  // namespace dd

#endif  // DD_SEMANTICS_GCWA_H_
