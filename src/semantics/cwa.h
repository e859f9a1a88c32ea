// Reiter's Closed World Assumption (paper Section 3.1, introductory
// discussion): CWA(DB) adds ¬x for every atom x the database does not
// entail. On disjunctive databases the result is usually inconsistent
// (from a|b neither a nor b is entailed, so both get negated) — which is
// exactly why the paper moves on to GCWA. The paper notes that deciding
// consistency of CWA(DB) is coNP-hard and in PᶺNP[O(log n)], yet not in
// coDᴾ unless the polynomial hierarchy collapses.
//
// Implemented as the natural PᶺNP procedure: one entailment (SAT) call per
// atom to build the negation set, then one consistency call.
#ifndef DD_SEMANTICS_CWA_H_
#define DD_SEMANTICS_CWA_H_

#include "semantics/closed_world_base.h"

namespace dd {

class CwaSemantics : public ClosedWorldSemantics {
 public:
  explicit CwaSemantics(const Database& db,
                        const SemanticsOptions& opts = {},
                        std::shared_ptr<MinimalEngine> view = nullptr);

  SemanticsKind kind() const override { return SemanticsKind::kCwa; }

 protected:
  /// {x : DB does not entail x} — one SAT call per atom.
  Result<Interpretation> ComputeNegatedAtoms() override;
};

}  // namespace dd

#endif  // DD_SEMANTICS_CWA_H_
