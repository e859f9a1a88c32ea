// Extended Closed World Assumption (Gelfond, Przymusinska & Przymusinski
// 89) ≡ propositional circumscription (Lifschitz 85), paper Section 3.3:
//
//   ECWA_{P;Z}(DB) = MM(DB;P;Z) = M(Circ(DB;P;Z))
//
// EGCWA is the case Q = Z = ∅ (EgcwaSemantics, semantics/egcwa.h, fixes
// that partition). Complexity: literal and formula inference Π₂ᵖ-complete;
// model existence as EGCWA.
//
// The class carries both names: EcwaSemantics reasons over the
// <P;Z>-minimal models; IsCircumscriptionModel() exposes the circumscription
// view (pointwise model checking), which the tests use to confirm the
// ECWA = CIRC equivalence the paper relies on.
#ifndef DD_SEMANTICS_ECWA_CIRC_H_
#define DD_SEMANTICS_ECWA_CIRC_H_

#include "minimal/pqz.h"
#include "semantics/semantics.h"

namespace dd {

class EcwaSemantics : public Semantics {
 public:
  EcwaSemantics(const Database& db, Partition pqz,
                const SemanticsOptions& opts = {},
                std::shared_ptr<MinimalEngine> view = nullptr);

  SemanticsKind kind() const override { return SemanticsKind::kEcwa; }

  const Partition& partition() const { return pqz_; }

  /// A <P;Z>-minimal model violating f, if any (counterexample-guided,
  /// Π₂ᵖ-faithful); InfersFormula is "none exists".
  Result<std::optional<Interpretation>> FindCounterexample(
      const Formula& f) override;

  /// O(1) for positive databases; one SAT call otherwise.
  Result<bool> HasModel() override;

  /// Every <P;Z>-minimal model, including Z-completions.
  Result<std::vector<Interpretation>> Models(int64_t cap = -1) override;

  /// Zero-copy model handle when Z = ∅: the model set then IS the engine's
  /// memoized projection stream, so once enumeration exhausts the stream
  /// this aliases its storage instead of re-materializing — the stream,
  /// the batch layer's in-flight bank and the bank store then share ONE
  /// copy (safe: exhausted streams are frozen, and stream eviction only
  /// drops the engine's reference). Falls back to the copying default when
  /// Z ≠ ∅ or the stream is unavailable (evicted). Same cap/overflow
  /// conventions as Models().
  Result<std::shared_ptr<const std::vector<Interpretation>>> SharedModels(
      int64_t cap = -1) override;

  /// Circumscription view: is `m` a model of Circ(DB;P;Z)? By Lifschitz'
  /// theorem this holds iff m ∈ MM(DB;P;Z); one SAT call.
  bool IsCircumscriptionModel(const Interpretation& m);

  /// Bulk circumscription check: verdicts[i] == IsCircumscriptionModel(
  /// candidates[i]). Fans the per-candidate SAT calls out over
  /// `opts.num_threads` workers (chunked deterministically, so the result
  /// and the merged stats are thread-count-invariant).
  std::vector<bool> AreCircumscriptionModels(
      const std::vector<Interpretation>& candidates);

 private:
  Partition pqz_;
};

}  // namespace dd

#endif  // DD_SEMANTICS_ECWA_CIRC_H_
