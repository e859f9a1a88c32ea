// Shared helpers for the test suite.
#ifndef DD_TESTS_TEST_UTIL_H_
#define DD_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/brute_force.h"
#include "gtest/gtest.h"
#include "logic/database.h"
#include "logic/formula.h"
#include "logic/parser.h"
#include "logic/partial_interpretation.h"
#include "minimal/pqz.h"
#include "semantics/semantics.h"
#include "util/rng.h"

namespace dd {
namespace testing {

/// Parses a program, failing the test on parse errors.
inline Database Db(std::string_view program) {
  Result<Database> r = ParseDatabase(program);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

/// Parses a formula against the database vocabulary.
inline Formula F(Database* db, std::string_view text) {
  Result<Formula> r = ParseFormula(text, &db->vocabulary());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

/// Canonical (sorted) model set for order-independent comparison.
inline std::set<Interpretation> ModelSet(
    const std::vector<Interpretation>& models) {
  return std::set<Interpretation>(models.begin(), models.end());
}

/// A random formula over the database's atoms (depth-bounded), for
/// property tests of formula inference.
inline Formula RandomFormula(Rng* rng, int num_vars, int depth) {
  if (depth == 0 || rng->Chance(0.35)) {
    Formula a = FormulaNode::MakeAtom(
        static_cast<Var>(rng->Below(static_cast<uint64_t>(num_vars))));
    return rng->Chance(0.4) ? FormulaNode::MakeNot(a) : a;
  }
  switch (rng->Below(4)) {
    case 0:
      return FormulaNode::MakeAnd(RandomFormula(rng, num_vars, depth - 1),
                                  RandomFormula(rng, num_vars, depth - 1));
    case 1:
      return FormulaNode::MakeOr(RandomFormula(rng, num_vars, depth - 1),
                                 RandomFormula(rng, num_vars, depth - 1));
    case 2:
      return FormulaNode::MakeImplies(RandomFormula(rng, num_vars, depth - 1),
                                      RandomFormula(rng, num_vars, depth - 1));
    default:
      return FormulaNode::MakeNot(RandomFormula(rng, num_vars, depth - 1));
  }
}

/// The core/brute_force reference for one semantics kind, as MakeSemantics
/// instantiates it (CCWA/ECWA with the all-minimized partition). PDSM is
/// three-valued: `partial` holds its partial stable models and `models`
/// the total ones; every other kind fills `models` only.
struct BruteReference {
  std::vector<Interpretation> models;
  std::vector<PartialInterpretation> partial;
  bool three_valued = false;

  bool HasModel() const {
    return three_valued ? !partial.empty() : !models.empty();
  }

  /// Skeptical inference; PDSM requires f to be true (not merely
  /// undefined) in every partial stable model.
  bool Infers(const Formula& f) const {
    if (!three_valued) return brute::Infers(models, f);
    return std::all_of(partial.begin(), partial.end(),
                       [&](const PartialInterpretation& i) {
                         return f->Eval3(i) == TruthValue::kTrue;
                       });
  }
};

/// CWA's model set from brute::AllModels: the models whose true atoms are
/// all entailed (true in every model). Either {the entailed set} or empty.
inline std::vector<Interpretation> BruteCwaModels(const Database& db) {
  std::vector<Interpretation> all = brute::AllModels(db);
  if (all.empty()) return all;
  Interpretation entailed = all[0];
  for (const Interpretation& m : all) {
    for (Var v : entailed.TrueAtoms()) {
      if (!m.Contains(v)) entailed.Erase(v);
    }
  }
  std::vector<Interpretation> out;
  for (const Interpretation& m : all) {
    const std::vector<Var> atoms = m.TrueAtoms();
    if (std::all_of(atoms.begin(), atoms.end(),
                    [&](Var v) { return entailed.Contains(v); })) {
      out.push_back(m);
    }
  }
  return out;
}

/// Every 3-valued interpretation over `num_vars` atoms (3^num_vars).
inline std::vector<PartialInterpretation> AllPartialInterpretations(
    int num_vars) {
  uint64_t count = 1;
  for (int i = 0; i < num_vars; ++i) count *= 3;
  std::vector<PartialInterpretation> out;
  out.reserve(count);
  for (uint64_t code = 0; code < count; ++code) {
    PartialInterpretation i(num_vars);
    uint64_t c = code;
    for (Var v = 0; v < num_vars; ++v) {
      i.SetValue(v, static_cast<TruthValue>(c % 3));
      c /= 3;
    }
    out.push_back(std::move(i));
  }
  return out;
}

/// The reference each kind's own test file checks against.
inline BruteReference BruteForceReference(SemanticsKind kind,
                                          const Database& db) {
  BruteReference ref;
  const Partition all = Partition::MinimizeAll(db.num_vars());
  switch (kind) {
    case SemanticsKind::kCwa:
      ref.models = BruteCwaModels(db);
      break;
    case SemanticsKind::kGcwa:
      ref.models = brute::GcwaModels(db);
      break;
    case SemanticsKind::kEgcwa:
      ref.models = brute::MinimalModels(db);
      break;
    case SemanticsKind::kCcwa:
      ref.models = brute::CcwaModels(db, all);
      break;
    case SemanticsKind::kEcwa:
      ref.models = brute::PqzMinimalModels(db, all);
      break;
    case SemanticsKind::kDdr:
      ref.models = brute::DdrModels(db);
      break;
    case SemanticsKind::kPws:
      ref.models = brute::PwsModels(db);
      break;
    case SemanticsKind::kPerf:
      ref.models = brute::PerfectModels(db);
      break;
    case SemanticsKind::kIcwa:
      ref.models = brute::IcwaModels(db);
      break;
    case SemanticsKind::kDsm:
      ref.models = brute::StableModels(db);
      break;
    case SemanticsKind::kPdsm:
      ref.three_valued = true;
      ref.partial = brute::PartialStableModels(db);
      for (const PartialInterpretation& i : ref.partial) {
        if (i.IsTotal()) ref.models.push_back(i.TrueSet());
      }
      break;
  }
  return ref;
}

}  // namespace testing
}  // namespace dd

#endif  // DD_TESTS_TEST_UTIL_H_
