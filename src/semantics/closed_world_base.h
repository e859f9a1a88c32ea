// Shared machinery for the CWA-family semantics (GCWA, CCWA, DDR): each
// augments the database with a set of negative literals N and then reasons
// classically over DB ∪ N. Concrete semantics differ only in how N is
// computed (minimal models for GCWA/CCWA, the T_DB fixpoint for DDR).
#ifndef DD_SEMANTICS_CLOSED_WORLD_BASE_H_
#define DD_SEMANTICS_CLOSED_WORLD_BASE_H_

#include <optional>
#include <vector>

#include "semantics/semantics.h"

namespace dd {

/// Base class: models(DB ∪ {¬x : x ∈ NegatedAtoms()}).
class ClosedWorldSemantics : public Semantics {
 public:
  ClosedWorldSemantics(const Database& db, const SemanticsOptions& opts);

  /// The augmentation set N (cached after the first successful
  /// computation). Can fail for semantics whose N-computation is resource
  /// bounded (PWS split enumeration).
  Result<Interpretation> NegatedAtoms();

  /// DB ∪ N |= F (one SAT call once N is known).
  Result<bool> InfersFormula(const Formula& f) override;

  /// DB ∪ N consistent.
  Result<bool> HasModel() override;

  /// All classical models of DB ∪ N (enumeration with blocking).
  Result<std::vector<Interpretation>> Models(int64_t cap = -1) override;

  /// One SAT call on DB ∪ N ∧ ¬F.
  Result<std::optional<Interpretation>> FindCounterexample(
      const Formula& f) override;

  const MinimalStats& stats() const override { return engine_.stats(); }

  /// Installs the budget on the options (inherited by helper solvers built
  /// from options()) and on the owned engine; clears latched interrupts.
  /// The cached augmentation set N survives — it is only ever cached after
  /// a *successful* (uninterrupted) computation, so it stays sound.
  void SetBudget(std::shared_ptr<Budget> budget) override;

  /// Attaches the query trace to the owned engine.
  void SetTrace(obs::TraceContext* trace) override { engine_.SetTrace(trace); }

  /// Session-reuse accounting of the underlying engine (all zero until an
  /// oracle call runs). The benches report cache_hits from here.
  oracle::SessionStats session_stats() const override {
    return engine_.session_stats();
  }

 protected:
  /// Computes the set of atoms x whose ¬x joins the database.
  virtual Result<Interpretation> ComputeNegatedAtoms() = 0;

  const Database& db() const { return db_; }
  const SemanticsOptions& options() const { return opts_; }
  MinimalEngine* engine() { return &engine_; }

 private:
  Database db_;
  SemanticsOptions opts_;
  MinimalEngine engine_;
  std::optional<Interpretation> negs_;
};

}  // namespace dd

#endif  // DD_SEMANTICS_CLOSED_WORLD_BASE_H_
