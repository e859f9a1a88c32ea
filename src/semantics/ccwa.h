// Careful Closed World Assumption (Gelfond & Przymusinska 86), Section 3.1.
//
// For a partition <P;Q;Z>, CCWA adds ¬x for every x ∈ P false in all
// <P;Z>-minimal models:
//
//   CCWA(DB) = M( DB ∪ {¬x : x ∈ P, MM(DB;P;Z) |= ¬x} )
//
// GCWA is the special case Q = Z = ∅ (GcwaSemantics, semantics/gcwa.h,
// only fixes that partition). Complexity: literal and formula inference
// Π₂ᵖ-hard and in PᶺΣ₂ᵖ[O(log n)]; model existence as GCWA.
#ifndef DD_SEMANTICS_CCWA_H_
#define DD_SEMANTICS_CCWA_H_

#include "minimal/pqz.h"
#include "semantics/closed_world_base.h"
#include "semantics/counting_inference.h"

namespace dd {

class CcwaSemantics : public ClosedWorldSemantics {
 public:
  CcwaSemantics(const Database& db, Partition pqz,
                const SemanticsOptions& opts = {},
                std::shared_ptr<MinimalEngine> view = nullptr);

  SemanticsKind kind() const override { return SemanticsKind::kCcwa; }

  const Partition& partition() const { return pqz_; }

  /// Consistency equals classical satisfiability: O(1) for positive DBs,
  /// one SAT call otherwise.
  Result<bool> HasModel() override;

  /// Negative literals over P short-circuit through the free-atom query.
  Result<bool> InfersLiteral(Lit l) override;

  /// Section 3.1 algorithm (O(log |P|) Σ₂ᵖ-oracle calls + 1).
  Result<CountingInferenceResult> InfersFormulaViaCounting(const Formula& f);

 protected:
  Result<Interpretation> ComputeNegatedAtoms() override;

 private:
  Partition pqz_;
};

}  // namespace dd

#endif  // DD_SEMANTICS_CCWA_H_
