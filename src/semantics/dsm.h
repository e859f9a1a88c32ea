// Disjunctive Stable Model Semantics (Przymusinski 91), paper Section 5.2.
//
// The Gelfond-Lifschitz reduct DB^M drops every clause whose negative body
// intersects M and strips the negative bodies of the rest; M is a
// disjunctive stable model iff M ∈ MM(DB^M). Stable models are minimal
// models of DB, and on positive databases DSM = MM.
//
// Stability checks run on ONE persistent engine per instance. Every clause
// c with a negative body gets a fresh selector atom s_c, and the skeleton
// clause heads(c) <- pos(c) ∧ s_c replaces it (negation-free clauses are
// copied). Setting s_c := [neg(c) ∩ M = ∅] turns the skeleton into DB^M,
// so "M ∈ MM(DB^M)" is one <P=V; Q=selectors; Z=∅> minimality check of
// M ∪ S_M — no reduct, engine or solver is built per candidate. The
// stability engine is private (its skeleton is not DB); candidates are
// minimized on the main engine over DB, which a Reasoner shares with the
// other semantics of the view. On negation-free DBs DB^M = DB, and the
// main engine answers directly.
// See docs/ORACLE.md ("Stable-model checks").
//
// Complexity: stability of a candidate is one SAT call; literal and
// formula inference Π₂ᵖ-complete; model existence Σ₂ᵖ-complete for DNDBs
// (trivial for positive DBs, one SAT call for negation-free DBs).
#ifndef DD_SEMANTICS_DSM_H_
#define DD_SEMANTICS_DSM_H_

#include <memory>
#include <vector>

#include "minimal/pqz.h"
#include "semantics/semantics.h"

namespace dd {

class DsmSemantics : public Semantics {
 public:
  explicit DsmSemantics(const Database& db, const SemanticsOptions& opts = {},
                        std::shared_ptr<MinimalEngine> view = nullptr);

  SemanticsKind kind() const override { return SemanticsKind::kDsm; }

  /// One minimality (SAT) call on the persistent selector skeleton
  /// (memoized on M and its selector values).
  Result<bool> IsStable(const Interpretation& m);

  /// Enables support pruning in the candidate search: every stable model
  /// is *supported* (each true atom has a rule with true body, false
  /// negative body and no other true head atom), so the candidate solver
  /// carries that encoding and skips unsupported minimal models wholesale.
  /// Sound and complete for stable models; on by default.
  void SetSupportPruning(bool on) { support_pruning_ = on; }

  /// Enumerates minimal models of DB and filters by stability.
  Result<std::vector<Interpretation>> Models(int64_t cap = -1) override;

  /// A stable model violating f, if any (InfersFormula is "none exists").
  Result<std::optional<Interpretation>> FindCounterexample(
      const Formula& f) override;

  /// Trivially true for positive DBs (DSM = MM ≠ ∅); one SAT call for
  /// negation-free DBs (DSM = MM, nonempty iff DB is satisfiable);
  /// candidate search otherwise (the Σ₂ᵖ-complete entry).
  Result<bool> HasModel() override;

  /// The main engine, then the stability engine once built.
  void ForEachEngine(
      const std::function<void(MinimalEngine*)>& fn) const override;

 private:
  /// Runs `visit` over stable models until it returns false.
  Status ForEachStable(const std::function<bool(const Interpretation&)>& visit);

  /// The stability engine over the selector skeleton, built on first use
  /// (DBs with negation only).
  MinimalEngine* Stability();

  Partition all_;
  bool support_pruning_ = true;
  bool has_negation_;

  // Selector skeleton: guarded_[j] is the index of the j-th clause with a
  // negative body; its selector is atom db_.num_vars() + j of stability_.
  std::vector<int> guarded_;
  std::unique_ptr<MinimalEngine> stability_;
  Partition stability_pqz_;  ///< P = DB atoms, Q = selectors, Z = ∅
};

}  // namespace dd

#endif  // DD_SEMANTICS_DSM_H_
