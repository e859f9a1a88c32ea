// Disjunctive Database Rule (Ross & Topor 88) ≡ Weak GCWA (Rajasekar, Lobo
// & Minker 89), paper Section 3.2:
//
//   DDR(DB) = M( DB ∪ {¬x : x occurs in no disjunct of T_DB↑ω} )
//
// Defined for deductive databases (C+). The fixpoint ignores integrity
// clauses — the paper's Example 3.1 (DDR(DB) ⊭ ¬c although :- a,b rules
// out a∧b) is reproduced verbatim in the tests.
//
// Complexity: literal inference of ¬x on positive DBs is polynomial (the
// fixpoint atoms are a least model — the only tractable entries of
// Table 1, with PWS); formula inference coNP-complete; with integrity
// clauses literal inference becomes coNP-complete (Chan).
#ifndef DD_SEMANTICS_DDR_H_
#define DD_SEMANTICS_DDR_H_

#include <optional>

#include "semantics/closed_world_base.h"

namespace dd {

class DdrSemantics : public ClosedWorldSemantics {
 public:
  /// Fails (in the first operation) when the database contains negation.
  explicit DdrSemantics(const Database& db,
                        const SemanticsOptions& opts = {},
                        std::shared_ptr<MinimalEngine> view = nullptr);

  SemanticsKind kind() const override { return SemanticsKind::kDdr; }

  /// Negative literals on positive databases: pure fixpoint lookup, no SAT
  /// call (the paper's polynomial path). Everything else routes through
  /// the augmented theory.
  Result<bool> InfersLiteral(Lit l) override;

  Result<bool> InfersFormula(const Formula& f) override;
  Result<bool> HasModel() override;

  /// Atoms occurring in T_DB↑ω (computed once, then cached; repeated
  /// negative-literal queries are bitset lookups).
  Result<Interpretation> FixpointAtoms();

 protected:
  Result<Interpretation> ComputeNegatedAtoms() override;

 private:
  Status CheckDeductive() const;

  /// Syntactic class, classified once at construction (the per-query
  /// HasNegation()/IsPositive() rescans used to dominate the P-time path).
  bool deductive_;
  bool positive_;
  std::optional<Interpretation> fixpoint_;
};

}  // namespace dd

#endif  // DD_SEMANTICS_DDR_H_
