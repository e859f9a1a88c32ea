#include "core/brute_force.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "qbf/qbf_solver.h"
#include "qbf/reductions.h"
#include "semantics/egcwa.h"
#include "semantics/perf.h"
#include "tests/test_util.h"

namespace dd {
namespace {

using testing::Db;
using testing::F;
using testing::ModelSet;

// One PERF formula query against core/brute_force: the verdict matches,
// FindCounterexample agrees with it, and a witness is a perfect model
// violating f.
void ExpectMatchesBruteForce(PerfSemantics* perf, const Database& db,
                             const Formula& f) {
  const std::vector<Interpretation> perfect = brute::PerfectModels(db);
  auto got = perf->InfersFormula(f);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(*got, brute::Infers(perfect, f))
      << db.ToString() << "F = " << f->ToString(db.vocabulary());
  auto ce = perf->FindCounterexample(f);
  ASSERT_TRUE(ce.ok()) << ce.status().ToString();
  ASSERT_EQ(ce->has_value(), !*got) << db.ToString();
  if (!ce->has_value()) return;
  EXPECT_FALSE(f->Eval(**ce)) << db.ToString();
  EXPECT_TRUE(ModelSet(perfect).count(**ce) > 0)
      << db.ToString() << "witness " << (*ce)->ToString(db.vocabulary());
}

TEST(Perf, StratifiedTextbookExample) {
  // b :- not a: the intended (perfect) model is {b}, not the minimal {a}.
  Database db = Db("b :- not a.");
  PerfSemantics perf(db);
  Var a = db.vocabulary().Find("a"), b = db.vocabulary().Find("b");
  EXPECT_TRUE(*perf.IsPerfect(Interpretation::FromAtoms(2, {b})));
  EXPECT_FALSE(*perf.IsPerfect(Interpretation::FromAtoms(2, {a})));
  auto models = perf.Models();
  ASSERT_TRUE(models.ok());
  ASSERT_EQ(models->size(), 1u);
  EXPECT_TRUE((*models)[0].Contains(b));
  EXPECT_TRUE(*perf.InfersFormula(F(&db, "b & ~a")));
}

TEST(Perf, EqualsMinimalModelsOnPositiveDbs) {
  Rng rng(123);
  for (int iter = 0; iter < 60; ++iter) {
    Database db = RandomPositiveDdb(4 + static_cast<int>(rng.Below(3)),
                                    4 + static_cast<int>(rng.Below(8)),
                                    rng.Next());
    PerfSemantics perf(db);
    auto got = perf.Models();
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(ModelSet(*got), ModelSet(brute::MinimalModels(db)))
        << db.ToString();
  }
}

TEST(Perf, ModelsMatchBruteForceOnStratifiedDbs) {
  Rng rng(234);
  for (int iter = 0; iter < 60; ++iter) {
    Database db = RandomStratifiedDdb(5 + static_cast<int>(rng.Below(3)),
                                      5 + static_cast<int>(rng.Below(8)), 3,
                                      0.5, rng.Next());
    PerfSemantics perf(db);
    auto got = perf.Models();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(ModelSet(*got), ModelSet(brute::PerfectModels(db)))
        << db.ToString();
  }
}

TEST(Perf, StrataIterationAgreesWithPreferenceDefinition) {
  Rng rng(345);
  for (int iter = 0; iter < 60; ++iter) {
    Database db = RandomStratifiedDdb(5 + static_cast<int>(rng.Below(3)),
                                      5 + static_cast<int>(rng.Below(8)), 3,
                                      0.5, rng.Next());
    PerfSemantics perf(db);
    auto by_pref = perf.Models();
    auto by_strata = perf.ModelsByStrataIteration();
    ASSERT_TRUE(by_pref.ok() && by_strata.ok())
        << by_strata.status().ToString();
    ASSERT_EQ(ModelSet(*by_pref), ModelSet(*by_strata)) << db.ToString();
  }
}

// A random database with negation and no integrity clauses; the
// negation may not be stratifiable, so perfect models may not exist.
Database RandomNegatedDdb(Rng* rng) {
  DdbConfig cfg;
  cfg.num_vars = 5;
  cfg.num_clauses = 4 + static_cast<int>(rng->Below(5));
  cfg.max_head = 2;
  cfg.negation_fraction = 0.4;
  cfg.seed = rng->Next();
  return RandomDdb(cfg);
}

TEST(Perf, FormulaInferenceMatchesBruteForce) {
  Rng rng(456);
  for (int iter = 0; iter < 60; ++iter) {
    Database db = RandomStratifiedDdb(5, 5 + static_cast<int>(rng.Below(6)),
                                      2, 0.5, rng.Next());
    PerfSemantics perf(db);
    Formula f = testing::RandomFormula(&rng, db.num_vars(), 3);
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesBruteForce(&perf, db, f));
  }
  int without_perfect = 0;
  for (int iter = 0; iter < 60; ++iter) {
    Database db = RandomNegatedDdb(&rng);
    if (brute::PerfectModels(db).empty()) ++without_perfect;
    PerfSemantics perf(db);
    Formula f = testing::RandomFormula(&rng, db.num_vars(), 3);
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesBruteForce(&perf, db, f));
  }
  // Some draws have no perfect model, so inference there is vacuous.
  EXPECT_GT(without_perfect, 0);
}

TEST(Perf, NegationFreeInferenceMatchesBruteForce) {
  // Without negation PERF = MM, and inference runs the engine's
  // counterexample-guided entailment loop: no model is ever enumerated.
  Rng rng(567);
  for (int iter = 0; iter < 60; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 4 + static_cast<int>(rng.Below(3));
    cfg.num_clauses = 3 + static_cast<int>(rng.Below(8));
    cfg.seed = rng.Next();
    Database db = iter % 2 == 0 ? RandomDdb(cfg)
                                : RandomPositiveDdb(cfg.num_vars,
                                                    cfg.num_clauses, cfg.seed);
    ASSERT_FALSE(db.HasNegation());
    PerfSemantics perf(db);
    Formula f = testing::RandomFormula(&rng, db.num_vars(), 3);
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesBruteForce(&perf, db, f));
    EXPECT_EQ(perf.stats().models_enumerated, 0) << db.ToString();
  }
  // Theorem 3.1 gadgets: PERF |= ¬w iff ∀X∃Yφ is valid.
  int valid_count = 0;
  for (int iter = 0; iter < 30; ++iter) {
    QbfForallExistsCnf q =
        RandomQbf(2, 2, 2 + static_cast<int>(rng.Below(4)), 3, rng.Next());
    auto valid = SolveForallExists(q);
    ASSERT_TRUE(valid.ok());
    ReducedInstance inst = ReducePi2ToGcwaLiteral(q);
    PerfSemantics perf(inst.db);
    Formula not_w = FormulaNode::MakeNot(FormulaNode::MakeAtom(inst.w));
    auto got = perf.InfersFormula(not_w);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, *valid) << "iter " << iter;
    if (*valid) ++valid_count;
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesBruteForce(&perf, inst.db, not_w));
    EXPECT_EQ(perf.stats().models_enumerated, 0);
  }
  // Both verdicts occur, so both exits of the loop are exercised.
  EXPECT_GT(valid_count, 0);
  EXPECT_LT(valid_count, 30);
}

TEST(Perf, CandidateCapNeverYieldsAWrongVerdict) {
  // A candidate cap may end a query with ResourceExhausted, never with a
  // verdict that differs from brute force.
  Rng rng(678);
  int exhausted = 0;
  int answered = 0;
  for (int iter = 0; iter < 40; ++iter) {
    Database db = iter % 2 == 0
                      ? RandomStratifiedDdb(5, 6, 2, 0.5, rng.Next())
                      : RandomNegatedDdb(&rng);
    Formula f = testing::RandomFormula(&rng, db.num_vars(), 3);
    const bool expected = brute::Infers(brute::PerfectModels(db), f);
    for (int64_t cap = 1; cap <= 3; ++cap) {
      SemanticsOptions opts;
      opts.max_candidates = cap;
      PerfSemantics perf(db, opts);
      auto got = perf.InfersFormula(f);
      if (!got.ok()) {
        ASSERT_EQ(got.status().code(), StatusCode::kResourceExhausted)
            << got.status().ToString();
        ++exhausted;
        continue;
      }
      ++answered;
      ASSERT_EQ(*got, expected)
          << "cap " << cap << "\n"
          << db.ToString() << "F = " << f->ToString(db.vocabulary());
    }
  }
  EXPECT_GT(exhausted, 0);
  EXPECT_GT(answered, 0);
}

TEST(Perf, UnstratifiableMayLackPerfectModels) {
  // a :- not b. b :- not a: the priority relation is cyclic; the two
  // minimal models {a},{b} are mutually preferable, so no perfect model.
  Database db = Db("a :- not b. b :- not a.");
  PerfSemantics perf(db);
  auto has = perf.HasModel();
  ASSERT_TRUE(has.ok());
  EXPECT_FALSE(*has);
  EXPECT_TRUE(perf.priority().HasStrictCycle());
  // Matches brute force.
  EXPECT_TRUE(brute::PerfectModels(db).empty());
}

TEST(Perf, RejectsIntegrityClauses) {
  Database db = Db("a | b. :- a.");
  PerfSemantics perf(db);
  EXPECT_EQ(perf.Models().status().code(), StatusCode::kFailedPrecondition);
}

TEST(Perf, HasModelOnStratified) {
  Database db = Db("a | b. c :- not a.");
  PerfSemantics perf(db);
  EXPECT_TRUE(*perf.HasModel());
}

TEST(Perf, NonModelIsNotPerfect) {
  Database db = Db("a.");
  PerfSemantics perf(db);
  EXPECT_FALSE(*perf.IsPerfect(Interpretation(1)));
}

}  // namespace
}  // namespace dd
