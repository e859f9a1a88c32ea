// Extended Generalized Closed World Assumption (Yahya & Henschen 85),
// paper Section 3.3: DB is augmented by every negative clause true in all
// minimal models, which model-theoretically collapses to
//
//   EGCWA(DB) = MM(DB).
//
// EGCWA is ECWA over <V;∅;∅>: this class fixes that partition (so
// inference, models and the zero-copy SharedModels are EcwaSemantics') and
// adds the literal augmentation, EntailedNegativeClauses.
//
// Complexity: literal and formula inference Π₂ᵖ-complete; model existence
// O(1) for positive DBs, NP-complete with integrity clauses.
#ifndef DD_SEMANTICS_EGCWA_H_
#define DD_SEMANTICS_EGCWA_H_

#include <memory>
#include <utility>
#include <vector>

#include "minimal/pqz.h"
#include "semantics/ecwa_circ.h"

namespace dd {

class EgcwaSemantics : public EcwaSemantics {
 public:
  explicit EgcwaSemantics(const Database& db,
                          const SemanticsOptions& opts = {},
                          std::shared_ptr<MinimalEngine> view = nullptr)
      : EcwaSemantics(db, Partition::MinimizeAll(db.num_vars()), opts,
                      std::move(view)) {}

  SemanticsKind kind() const override { return SemanticsKind::kEgcwa; }

  /// The augmentation EGCWA literally performs (Yahya & Henschen): the
  /// ⊆-minimal atom sets S with |S| <= max_size such that the negative
  /// clause ¬s1 | ... | ¬sk is true in every minimal model — equivalently,
  /// no minimal model contains S. Each returned set is minimal: every
  /// proper subset is contained in some minimal model. GCWA's negation set
  /// is exactly the singletons here.
  Result<std::vector<std::vector<Var>>> EntailedNegativeClauses(
      int max_size);
};

}  // namespace dd

#endif  // DD_SEMANTICS_EGCWA_H_
