#include "core/brute_force.h"
#include "gen/generators.h"
#include "gtest/gtest.h"
#include "obs/trace.h"
#include "semantics/dsm.h"
#include "tests/test_util.h"

namespace dd {
namespace {

using testing::Db;
using testing::F;
using testing::ModelSet;

TEST(Dsm, ClassicEvenLoop) {
  // a :- not b. b :- not a: two stable models {a} and {b}.
  Database db = Db("a :- not b. b :- not a.");
  DsmSemantics dsm(db);
  auto models = dsm.Models();
  ASSERT_TRUE(models.ok());
  EXPECT_EQ(models->size(), 2u);
  EXPECT_TRUE(*dsm.HasModel());
  EXPECT_TRUE(*dsm.InfersFormula(F(&db, "a | b")));
  EXPECT_FALSE(*dsm.InfersFormula(F(&db, "a")));
}

TEST(Dsm, OddLoopHasNoStableModel) {
  Database db = Db("a :- not a.");
  DsmSemantics dsm(db);
  EXPECT_FALSE(*dsm.HasModel());
  // Skeptical inference from the empty model set is vacuous.
  EXPECT_TRUE(*dsm.InfersFormula(F(&db, "a & ~a")));
}

TEST(Dsm, DisjunctiveChoice) {
  Database db = Db("a | b.");
  DsmSemantics dsm(db);
  auto models = dsm.Models();
  ASSERT_TRUE(models.ok());
  EXPECT_EQ(models->size(), 2u);  // {a} and {b}, not {a,b}
}

TEST(Dsm, ConstraintViaOddLoop) {
  // The w :- not w idiom eliminates stable models lacking w.
  Database db = Db("a | w. w :- not w.");
  DsmSemantics dsm(db);
  auto models = dsm.Models();
  ASSERT_TRUE(models.ok());
  ASSERT_EQ(models->size(), 1u);
  EXPECT_TRUE((*models)[0].Contains(db.vocabulary().Find("w")));
}

TEST(Dsm, EqualsMinimalModelsOnPositiveDbs) {
  Rng rng(101);
  for (int iter = 0; iter < 60; ++iter) {
    Database db = RandomPositiveDdb(4 + static_cast<int>(rng.Below(4)),
                                    4 + static_cast<int>(rng.Below(8)),
                                    rng.Next());
    DsmSemantics dsm(db);
    auto got = dsm.Models();
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(ModelSet(*got), ModelSet(brute::MinimalModels(db)))
        << db.ToString();
  }
}

TEST(Dsm, ModelsMatchBruteForceOnNormalDbs) {
  Rng rng(202);
  for (int iter = 0; iter < 100; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 4 + static_cast<int>(rng.Below(4));
    cfg.num_clauses = 4 + static_cast<int>(rng.Below(9));
    cfg.integrity_fraction = 0.1;
    cfg.negation_fraction = 0.35;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    DsmSemantics dsm(db);
    auto got = dsm.Models();
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(ModelSet(*got), ModelSet(brute::StableModels(db)))
        << db.ToString();
  }
}

TEST(Dsm, IsStableAgreesWithBruteForce) {
  // Stability checks interleave with full enumerations on one instance
  // (one stability session and memo) without disturbing either.
  Rng rng(303);
  for (int iter = 0; iter < 60; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 4 + static_cast<int>(rng.Below(3));
    cfg.num_clauses = 4 + static_cast<int>(rng.Below(8));
    cfg.negation_fraction = 0.35;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    DsmSemantics dsm(db);
    auto stable = ModelSet(brute::StableModels(db));
    for (const auto& m : brute::AllModels(db)) {
      auto got = dsm.IsStable(m);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(*got, stable.count(m) > 0) << db.ToString();
      auto models = dsm.Models();
      ASSERT_TRUE(models.ok());
      ASSERT_EQ(ModelSet(*models), stable) << db.ToString();
    }
  }
}

TEST(Dsm, InferenceMatchesBruteForce) {
  Rng rng(404);
  for (int iter = 0; iter < 80; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 4 + static_cast<int>(rng.Below(4));
    cfg.num_clauses = 4 + static_cast<int>(rng.Below(8));
    cfg.negation_fraction = 0.35;
    cfg.integrity_fraction = 0.1;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    DsmSemantics dsm(db);
    Formula f = testing::RandomFormula(&rng, db.num_vars(), 3);
    auto got = dsm.InfersFormula(f);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*got, brute::Infers(brute::StableModels(db), f))
        << db.ToString();
  }
}

TEST(Dsm, SupportPruningPreservesAnswers) {
  Rng rng(606);
  for (int iter = 0; iter < 80; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 4 + static_cast<int>(rng.Below(4));
    cfg.num_clauses = 4 + static_cast<int>(rng.Below(9));
    cfg.negation_fraction = 0.35;
    cfg.integrity_fraction = 0.1;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    DsmSemantics pruned(db);
    DsmSemantics plain(db);
    plain.SetSupportPruning(false);
    auto a = pruned.Models();
    auto b = plain.Models();
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(ModelSet(*a), ModelSet(*b)) << db.ToString();
    ASSERT_EQ(*pruned.HasModel(), *plain.HasModel()) << db.ToString();
  }
}

TEST(Dsm, NegationFreeWithIntegrityMatchesBruteForce) {
  // DSM = MM without negation: HasModel is one satisfiability call and
  // inference is the minimal-model entailment loop, integrity clauses
  // included.
  Rng rng(707);
  for (int iter = 0; iter < 80; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 4 + static_cast<int>(rng.Below(4));
    cfg.num_clauses = 4 + static_cast<int>(rng.Below(9));
    cfg.negation_fraction = 0.0;
    cfg.integrity_fraction = 0.25;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    ASSERT_FALSE(db.HasNegation());
    const auto minimal = brute::MinimalModels(db);
    const auto minimal_set = ModelSet(minimal);
    DsmSemantics dsm(db);
    auto has = dsm.HasModel();
    ASSERT_TRUE(has.ok());
    ASSERT_EQ(*has, !minimal.empty()) << db.ToString();
    Formula f = testing::RandomFormula(&rng, db.num_vars(), 3);
    auto infers = dsm.InfersFormula(f);
    ASSERT_TRUE(infers.ok());
    ASSERT_EQ(*infers, brute::Infers(minimal, f)) << db.ToString();
    auto ce = dsm.FindCounterexample(f);
    ASSERT_TRUE(ce.ok());
    ASSERT_EQ(ce->has_value(), !*infers) << db.ToString();
    if (ce->has_value()) {
      EXPECT_TRUE(minimal_set.count(**ce) > 0) << db.ToString();
      EXPECT_FALSE(f->Eval(**ce)) << db.ToString();
    }
    // Both candidate searches check stability on the owned engine here.
    DsmSemantics plain(db);
    plain.SetSupportPruning(false);
    for (DsmSemantics* s : {&dsm, &plain}) {
      auto models = s->Models();
      ASSERT_TRUE(models.ok());
      ASSERT_EQ(ModelSet(*models), minimal_set) << db.ToString();
    }
  }
}

TEST(Dsm, SelectorNamesNeverAliasUserAtoms) {
  // A user atom spelled like the skeleton's first selector: selectors are
  // fresh variables, so the user atom keeps its own meaning.
  Database db = Db(
      "a :- not b. b :- not a. dsm_sel0 | c :- a, not c. d :- dsm_sel0.");
  DsmSemantics dsm(db);
  auto stable = ModelSet(brute::StableModels(db));
  for (const auto& m : brute::AllModels(db)) {
    auto got = dsm.IsStable(m);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(*got, stable.count(m) > 0) << m.ToString(db.vocabulary());
  }
  auto models = dsm.Models();
  ASSERT_TRUE(models.ok());
  EXPECT_EQ(ModelSet(*models), stable);
}

TEST(Dsm, StabilityChecksAreTracedAndAccounted) {
  // The stability engine's session and spans are reported with the owned
  // engine's: stability checks appear as "minimal" spans, and
  // session_stats() counts both base loads.
  Database db = Db("a :- not b. b :- not a. c | d :- a.");
  obs::TraceContext trace;
  DsmSemantics dsm(db);
  dsm.SetTrace(&trace);
  auto models = dsm.Models();
  ASSERT_TRUE(models.ok());
  EXPECT_EQ(ModelSet(*models), ModelSet(brute::StableModels(db)));
  int checks = 0;
  for (const obs::Span& s : trace.Snapshot()) {
    if (s.layer == "minimal" && s.name == "minimal.is_minimal") ++checks;
  }
  EXPECT_GT(checks, 0);
  // Candidate minimization + stability.
  EXPECT_EQ(dsm.session_stats().base_loads, 2);
  EXPECT_GE(dsm.stats().sat_calls,
            trace.SumCounter("oracle_calls", "minimal"));
}

TEST(Dsm, StableModelsAreMinimalModels) {
  Rng rng(505);
  for (int iter = 0; iter < 50; ++iter) {
    DdbConfig cfg;
    cfg.num_vars = 5;
    cfg.num_clauses = 6;
    cfg.negation_fraction = 0.4;
    cfg.seed = rng.Next();
    Database db = RandomDdb(cfg);
    auto minimal = ModelSet(brute::MinimalModels(db));
    DsmSemantics dsm(db);
    auto got = dsm.Models();
    ASSERT_TRUE(got.ok());
    for (const auto& m : *got) {
      ASSERT_TRUE(minimal.count(m) > 0) << db.ToString();
    }
  }
}

}  // namespace
}  // namespace dd
