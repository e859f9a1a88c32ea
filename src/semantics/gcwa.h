// Generalized Closed World Assumption (Minker 82), paper Section 3.1.
//
//   GCWA(DB) = { M model of DB : M |= ¬x for every atom x that is false in
//                all minimal models of DB }
//
// GCWA is CCWA over <V;∅;∅>: this class only fixes the partition, so every
// procedure (¬x as MinimalEntails(¬x), the augmented theory, the Section
// 3.1 counting algorithm) is CcwaSemantics'.
//
// Complexity (paper): literal inference Π₂ᵖ-complete; formula inference
// Π₂ᵖ-hard and in PᶺΣ₂ᵖ[O(log n)]; model existence O(1) for positive DBs,
// NP-complete with integrity clauses (= satisfiability of DB, since every
// minimal model is a GCWA model).
#ifndef DD_SEMANTICS_GCWA_H_
#define DD_SEMANTICS_GCWA_H_

#include <memory>
#include <utility>

#include "minimal/pqz.h"
#include "semantics/ccwa.h"

namespace dd {

class GcwaSemantics : public CcwaSemantics {
 public:
  explicit GcwaSemantics(const Database& db,
                         const SemanticsOptions& opts = {},
                         std::shared_ptr<MinimalEngine> view = nullptr)
      : CcwaSemantics(db, Partition::MinimizeAll(db.num_vars()), opts,
                      std::move(view)) {}

  SemanticsKind kind() const override { return SemanticsKind::kGcwa; }
};

}  // namespace dd

#endif  // DD_SEMANTICS_GCWA_H_
